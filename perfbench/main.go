// Command perfbench is MOVE-bench: it spawns `moved` daemons on loopback,
// plays the entry node over their real TCP RPC surface, reads every event
// on live subscriber sessions, checks each document against a brute-force
// oracle and prints end-to-end (untraced) or per-layer (traced) metrics.
//
//	perfbench -moved ./moved -workdir ./run -workload fanout -seed 1 -seconds 18 -trace 0
//
// The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func hostCPUs() int { return runtime.NumCPU() }

// daemons is the cluster size: a 2x2 allocation grid fits in four daemons,
// and the workloads (allocation capacity, session owners) are sized for it.
const daemons = 4

func run() error {
	workloadName := flag.String("workload", "fanout", "workload: fanout, match or grid-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 18, "measured seconds: two thirds closed-loop sat, one third open-loop paced")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	movedBin := flag.String("moved", "", "path to a built moved binary")
	workdir := flag.String("workdir", "", "directory for daemon logs")
	flag.Parse()

	sp, ok := specs[*workloadName]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}
	if *movedBin == "" || *workdir == "" {
		return fmt.Errorf("-moved and -workdir are required")
	}
	stopOnSignal()
	// One generator process using at most nproc threads.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), hostCPUs()))
	// The generator's per-document garbage is short-lived; collecting it
	// less often keeps its pauses out of the measured latencies.
	debug.SetGCPercent(400)
	traced := *traceFlag == 1
	total := time.Duration(*seconds) * time.Second
	satDur, pacedDur := total*2/3, total/3
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	printHeader(out, sp, *seed, traced)
	wl := buildWorkload(sp, *seed)
	fmt.Fprintf(out, "workload %s: %d stable filters, %d subscribers, %d-doc pool, %.1f stable matches/doc expected\n",
		sp.name, len(wl.filters), len(wl.subs), len(wl.docs), float64(wl.expTotal)/float64(len(wl.docs)))

	// Set up sp.setups times; keep the last cluster for measurement.
	var setupTimes []float64
	var b *bench
	var ai allocInfo
	for i := 0; i < sp.setups; i++ {
		dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", sp.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		b = newBench(wl, dir)
		b.traceOn = traced
		t0 := time.Now()
		err := b.setup(*movedBin, daemons, &ai)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err != nil {
			b.teardown()
			return fmt.Errorf("setup: %w", err)
		}
		if i < sp.setups-1 {
			b.teardown()
		}
	}
	defer b.teardown()
	fmt.Fprintf(out, "setup: %s s (median of %d)\n", fmtFloats(setupTimes), sp.setups)
	if sp.grid {
		fmt.Fprintf(out, "allocation: grids %s, %d grid nodes, round %.3fs, %d filters migrated\n", ai.shapes, ai.gridNodes, ai.roundS, ai.migrated)
	}

	m := &measure{b: b, sp: sp, setupS: median(setupTimes), ai: ai}
	if err := m.phases(satDur, pacedDur, traced); err != nil {
		return err
	}
	res := m.result(traced)
	m.report(out, traced)
	if traced {
		if err := m.replayAndLedger(out, res); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "end-to-end metrics (daemon CPU per document at the paced load, summed peak RSS, set-up time):\n")
		for _, name := range res.order {
			fmt.Fprintf(out, "  %-20s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
		fmt.Fprintf(out, "sat throughput and CPU per document, paced latencies from due time (medians over 1 s windows; unbounded, per-layer in traced runs):\n")
		for _, name := range m.latency.order {
			fmt.Fprintf(out, "  %-20s %14.4f %s\n", name, m.latency.Metrics[name].Value, m.latency.Metrics[name].Unit)
		}
	}
	printResult(out, res)
	if !res.Correct {
		return fmt.Errorf("run incorrect: oracle violations, mechanism assertions or an unsustainable paced phase (see report)")
	}
	return nil
}

func printHeader(w *bufio.Writer, sp *spec, seed int64, traced bool) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				model = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	daemonProcs := os.Getenv("GOMAXPROCS")
	if daemonProcs == "" {
		daemonProcs = fmt.Sprintf("%d (default)", hostCPUs())
	}
	mode := "untraced (end-to-end metrics)"
	if traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "MOVE-bench %s, %s\n", sp.name, mode)
	fmt.Fprintf(w, "host: cpu %q, nproc %d, generator GOMAXPROCS %d, daemon GOMAXPROCS %s, %s, %d moved daemons, seed %d, loopback TCP\n",
		model, hostCPUs(), runtime.GOMAXPROCS(0), daemonProcs, runtime.Version(), daemons, seed)
	fmt.Fprintf(w, "why: %s\n", sp.why)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (r *result) set(name, unit string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func printResult(w *bufio.Writer, r *result) {
	data, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", data)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
