package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// daemon is one spawned moved process.
type daemon struct {
	id        ring.NodeID
	addr      string
	debugAddr string
	subAddr   string
	cmd       *exec.Cmd
	exited    chan struct{} // closed once the process has exited and been reaped
	logPath   string
}

// sessionQueue is the per-subscriber delivery queue bound passed to every
// daemon: large enough that no workload's in-flight fan-out can overflow it,
// so a drop is always a defect, never policy.
const sessionQueue = 1 << 16

// pickLoopbackAddrs reserves n distinct loopback ports, holding every
// listener open until all are picked so no two daemons share a port. The
// ports lie below the kernel's ephemeral range: between release and the
// daemon's bind, a port inside it can be handed to another daemon's
// outgoing connection, one below it never is.
func pickLoopbackAddrs(n int) ([]string, error) {
	hi := ephemeralLow()
	lo := min(10000, hi/2)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	for tries := 0; len(addrs) < n && tries < 100*n; tries++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", lo+rng.Intn(hi-lo)))
		if err != nil {
			continue // in use
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	if len(addrs) < n {
		return nil, fmt.Errorf("only %d of %d free loopback ports in [%d, %d)", len(addrs), n, lo, hi)
	}
	return addrs, nil
}

// ephemeralLow is the first port of the kernel's ephemeral range.
func ephemeralLow() int {
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil && v > 2048 {
				return v
			}
		}
	}
	return 32768
}

// spawnDaemons launches n moved processes on loopback with default flags
// apart from their addresses and the session queue bound.
func spawnDaemons(dir, movedBin string, n int) ([]*daemon, error) {
	addrs, err := pickLoopbackAddrs(3 * n)
	if err != nil {
		return nil, err
	}
	ds := make([]*daemon, n)
	var peerParts []string
	for i := range ds {
		id := ring.NodeID(fmt.Sprintf("n%d", i))
		ds[i] = &daemon{id: id, addr: addrs[3*i], debugAddr: addrs[3*i+1], subAddr: addrs[3*i+2]}
		peerParts = append(peerParts, fmt.Sprintf("%s=%s", id, ds[i].addr))
	}
	peers := strings.Join(peerParts, ",")
	for _, d := range ds {
		d.logPath = filepath.Join(dir, string(d.id)+".log")
		logF, err := os.Create(d.logPath)
		if err != nil {
			return ds, err
		}
		d.cmd = exec.Command(movedBin,
			"-id", string(d.id),
			"-listen", d.addr,
			"-peers", peers,
			"-debug.addr", d.debugAddr,
			"-subscribe.addr", d.subAddr,
			"-subscribe.queue", strconv.Itoa(sessionQueue))
		d.cmd.Stdout = logF
		d.cmd.Stderr = logF
		// A daemon must not outlive the bench, even when it is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		spawnedMu.Lock()
		err = d.cmd.Start()
		if err == nil {
			d.exited = make(chan struct{})
			go func(d *daemon) {
				_ = d.cmd.Wait()
				close(d.exited)
			}(d)
			spawned = append(spawned, d)
		}
		spawnedMu.Unlock()
		logF.Close()
		if err != nil {
			return ds, fmt.Errorf("start %s: %w", d.id, err)
		}
	}
	return ds, nil
}

// spawned lists every daemon started in this process, so stopOnSignal can
// stop them all.
var (
	spawnedMu sync.Mutex
	spawned   []*daemon
)

// stopOnSignal stops and reaps every daemon when the bench is interrupted or
// terminated, then exits 1 without a result line.
func stopOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		spawnedMu.Lock()
		ds := append([]*daemon(nil), spawned...)
		spawnedMu.Unlock()
		stopDaemons(ds)
		fmt.Fprintf(os.Stderr, "perfbench: %v: daemons stopped, no result\n", s)
		os.Exit(1)
	}()
}

// stopDaemons terminates every daemon and waits for each to exit. It may run
// for the same daemons more than once, concurrently: every call returns only
// once they have all exited.
func stopDaemons(ds []*daemon) {
	for _, d := range ds {
		if d != nil && d.exited != nil {
			_ = d.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, d := range ds {
		if d == nil || d.exited == nil {
			continue
		}
		select {
		case <-d.exited:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// waitReady polls each daemon's /healthz, then round-trips a stats RPC to
// each through the bench's transport: readiness of the wire path itself.
func waitReady(client *transport.TCPNode, ds []*daemon) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, d := range ds {
		for {
			resp, err := httpClient.Get("http://" + d.debugAddr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				tail, _ := os.ReadFile(d.logPath)
				if len(tail) > 512 {
					tail = tail[len(tail)-512:]
				}
				return fmt.Errorf("daemon %s never became healthy; log tail:\n%s", d.id, tail)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, d := range ds {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := client.Send(ctx, d.id, node.EncodeStatsPull())
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stats RPC to %s never succeeded: %v", d.id, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// scrapeMetrics fetches one daemon's /metrics dump.
func scrapeMetrics(d *daemon) (metrics.Dump, error) {
	var dump metrics.Dump
	resp, err := httpClient.Get("http://" + d.debugAddr + "/metrics")
	if err != nil {
		return dump, fmt.Errorf("scrape %s: %w", d.id, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return dump, fmt.Errorf("scrape %s: %w", d.id, err)
	}
	return dump, nil
}

// healthEpoch reads the committed allocation epoch from /healthz.
func healthEpoch(d *daemon) (uint64, error) {
	resp, err := httpClient.Get("http://" + d.debugAddr + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Epoch, nil
}

// goroutines reads the total from the goroutine profile's debug=1 header.
func goroutines(d *daemon) (int, error) {
	resp, err := httpClient.Get("http://" + d.debugAddr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		return 0, err
	}
	i := strings.LastIndex(line, "total ")
	if i < 0 {
		return 0, fmt.Errorf("goroutine header %q", line)
	}
	return strconv.Atoi(strings.TrimSpace(line[i+len("total "):]))
}

// collectGarbage runs a full collection in a daemon through its pprof heap
// endpoint, which collects before writing the profile.
func collectGarbage(d *daemon) error {
	resp, err := httpClient.Get("http://" + d.debugAddr + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s heap profile: %s", d.id, resp.Status)
	}
	return nil
}

// clkTck is the kernel's USER_HZ, the unit of utime/stime in /proc stat.
const clkTck = 100

// procCPU returns a process's utime+stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := data[bytes.LastIndexByte(data, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line for pid %d", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse stat for pid %d", pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// genCPU is the bench process's own user+system CPU (getrusage SELF).
func genCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is one phase-boundary snapshot of every daemon seen from outside.
type sample struct {
	gen   time.Duration
	cpu   []time.Duration
	dumps []metrics.Dump
	stats []node.StatsResp
	local metrics.Dump // the bench's own transport registry

	pubBytes, respBytes int64
}

// takeSample reads /proc, /metrics and the stats RPC of every daemon.
func (b *bench) takeSample() (sample, error) {
	s := sample{gen: genCPU(), local: b.reg.Dump(), pubBytes: b.pubBytes.Load(), respBytes: b.respBytes.Load()}
	for _, d := range b.daemons {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.cpu = append(s.cpu, c)
		dump, err := scrapeMetrics(d)
		if err != nil {
			return s, err
		}
		s.dumps = append(s.dumps, dump)
		st, err := b.statsPull(d.id)
		if err != nil {
			return s, err
		}
		s.stats = append(s.stats, st)
	}
	return s, nil
}

func (b *bench) statsPull(id ring.NodeID) (node.StatsResp, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	raw, err := b.client.Send(ctx, id, node.EncodeStatsPull())
	if err != nil {
		return node.StatsResp{}, err
	}
	return node.DecodeStatsResp(raw)
}

// counterDelta sums a counter's growth across daemons between two samples.
func counterDelta(a, z sample, name string) int64 {
	var sum int64
	for i := range z.dumps {
		sum += z.dumps[i].Counters[name] - a.dumps[i].Counters[name]
	}
	return sum
}

// histCountDelta sums a histogram's count growth across daemons.
func histCountDelta(a, z sample, name string) int64 {
	var count int64
	for i := range z.dumps {
		count += z.dumps[i].Histograms[name].Count - a.dumps[i].Histograms[name].Count
	}
	return count
}

// histMaxQuantile is the largest daemon's cumulative quantile of a
// histogram at sample z (the dump carries quantiles, not buckets, so phase
// quantiles cannot be differenced; the phase dominates every count).
func histMaxQuantile(z sample, name string, p99 bool) int64 {
	var m int64
	for _, d := range z.dumps {
		h := d.Histograms[name]
		v := h.P50NS
		if p99 {
			v = h.P99NS
		}
		if v > m {
			m = v
		}
	}
	return m
}
