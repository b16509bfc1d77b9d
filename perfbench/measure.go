package main

import (
	"bufio"
	"fmt"
	"sync"
	"time"
)

// settleDur is the untimed full-mix run between set-up and measurement.
const settleDur = 3 * time.Second

// pacedWorkers bounds the open-loop generator's concurrency; operations
// due while every worker is busy wait in the backlog.
const pacedWorkers = 64

// measure is one run's phases and the figures derived from them.
type measure struct {
	b      *bench
	sp     *spec
	setupS float64
	ai     allocInfo

	s0, s1, s2, s3   sample // before sat, after sat, after sat-traced, after paced
	satS, satTracedS float64
	satLo, pacedLo   int64         // phase starts, ns since the run's base
	period           int64         // window length, ns
	satWins          int           // windows in the sat phase
	pacedWins        int           // windows in the paced phase
	ticks            []cpuTick     // CPU at each sat window boundary
	pacedCPU         time.Duration // daemons' CPU over the paced phase and its drain
	paced            pacedStats
	goroutines       int
	drainErr         error
	v                verdict
	mech             []string
	latency          *result // paced latencies and failed_frac
}

// cpuTick is the daemons' summed CPU and the generator's own at one instant.
type cpuTick struct {
	at          int64
	daemon, gen time.Duration
}

// sampleCPU reads /proc and getrusage at each of k+1 window boundaries
// starting at lo.
func (m *measure) sampleCPU(lo int64, k int) []cpuTick {
	b := m.b
	out := make([]cpuTick, 0, k+1)
	for i := 0; i <= k; i++ {
		if wait := lo + int64(i)*m.period - b.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		t := cpuTick{at: b.now(), gen: genCPU()}
		for _, d := range b.daemons {
			if c, err := procCPU(d.cmd.Process.Pid); err == nil {
				t.daemon += c
			}
		}
		out = append(out, t)
	}
	return out
}

// phases runs sat (closed loop), optionally sat again traced, then paced
// (open loop), draining every expected event after each. Each phase is
// cut into one-second windows; end-to-end figures are medians over them,
// so a transient stall on the shared host moves one window, not the run.
func (m *measure) phases(satDur, pacedDur time.Duration, traced bool) error {
	b := m.b
	m.period = int64(time.Second)
	m.satWins = max(1, int(satDur/time.Second))
	m.pacedWins = max(1, int(pacedDur/time.Second))
	// Let the daemons' heaps and caches settle after set-up's bulk
	// registration (its garbage is still being collected) before timing.
	b.runClosed(phSettle, settleDur, 0, m.sp.window)
	var err error
	if m.s0, err = b.takeSample(); err != nil {
		return err
	}
	closed := func(phase uint8) float64 {
		t0 := time.Now()
		b.runClosed(phase, satDur, 0, m.sp.window)
		if err := b.drain(); err != nil && m.drainErr == nil {
			m.drainErr = err
		}
		return time.Since(t0).Seconds()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	m.satLo = b.now()
	go func() {
		defer wg.Done()
		m.ticks = m.sampleCPU(m.satLo, m.satWins)
	}()
	go func() {
		defer wg.Done()
		time.Sleep(satDur / 2)
		for _, d := range b.daemons {
			if n, err := goroutines(d); err == nil {
				m.goroutines += n
			}
		}
	}()
	m.satS = closed(phSat)
	wg.Wait()
	if m.s1, err = b.takeSample(); err != nil {
		return err
	}
	m.s2 = m.s1
	if traced {
		m.satTracedS = closed(phSatTraced)
		if m.s2, err = b.takeSample(); err != nil {
			return err
		}
	}
	// Start the paced phase from freshly collected heaps. Its few hundred
	// documents span at most about one collection per daemon, and whether
	// one lands inside the phase would otherwise move its CPU per document
	// by several percent (a collection of a match daemon's heap costs up to
	// 0.3 s of CPU).
	for _, d := range b.daemons {
		if err := collectGarbage(d); err != nil {
			return err
		}
	}
	m.pacedLo = b.now()
	cpu0 := m.sampleCPU(m.pacedLo, 0)[0]
	m.paced = b.runPaced(m.sp.pacedRate, pacedDur, pacedWorkers)
	if err := b.drain(); err != nil && m.drainErr == nil {
		m.drainErr = err
	}
	m.pacedCPU = m.sampleCPU(b.now(), 0)[0].daemon - cpu0.daemon
	if m.s3, err = b.takeSample(); err != nil {
		return err
	}
	m.v = b.check()
	return nil
}

// satWindows returns, per sat window, the oracle-exact documents finished
// per second and the daemons' CPU per finished document.
func (m *measure) satWindows() (rate, cpuPerDoc []float64) {
	b := m.b
	counts := make([]int, len(m.ticks)-1)
	n := b.nextDoc.Load()
	for d := uint64(1); d <= n && d < maxDocs; d++ {
		rec := &b.recs[d]
		if rec.phase != phSat || !rec.ok {
			continue
		}
		for i := range counts {
			if rec.end >= m.ticks[i].at && rec.end < m.ticks[i+1].at {
				counts[i]++
				break
			}
		}
	}
	for i, c := range counts {
		secs := float64(m.ticks[i+1].at-m.ticks[i].at) / 1e9
		rate = append(rate, float64(c)/secs)
		if c > 0 {
			cpuPerDoc = append(cpuPerDoc, float64(m.ticks[i+1].daemon-m.ticks[i].daemon)/1e3/float64(c))
		}
	}
	return rate, cpuPerDoc
}

// windowQuantiles buckets samples into k windows from lo and returns the
// median over windows of each window's p50 and p99.
func (m *measure) windowQuantiles(lo int64, k int, samples []timedLat) (p50, p99 float64) {
	buckets := make([][]time.Duration, k)
	for _, s := range samples {
		if s.at < lo {
			continue
		}
		if i := int((s.at - lo) / m.period); i < k {
			buckets[i] = append(buckets[i], s.lat)
		}
	}
	var a, z []float64
	for _, bk := range buckets {
		if len(bk) == 0 {
			continue
		}
		bk = sortDur(bk)
		a = append(a, ms(percentile(bk, 0.50)))
		z = append(z, ms(percentile(bk, 0.99)))
	}
	return median(a), median(z)
}

func (m *measure) satDocs() float64 { return float64(max(m.v.docs[phSat], 1)) }

// mechanisms fails the run when a workload did not exercise the layer it
// exists for, so a change cannot win by bypassing that layer.
func (m *measure) mechanisms(eventsPerDoc, postingsPerDoc, columnRPCsPerDoc float64) {
	sp := m.sp
	if sp.eventsFloor > 0 && eventsPerDoc < sp.eventsFloor {
		m.mech = append(m.mech, fmt.Sprintf("delivery.events_per_doc %.2f below floor %.0f", eventsPerDoc, sp.eventsFloor))
	}
	if sp.eventsCeil > 0 && eventsPerDoc > sp.eventsCeil {
		m.mech = append(m.mech, fmt.Sprintf("delivery.events_per_doc %.2f above ceiling %.0f", eventsPerDoc, sp.eventsCeil))
	}
	if sp.postingFloor > 0 && postingsPerDoc < sp.postingFloor {
		m.mech = append(m.mech, fmt.Sprintf("index.postings_per_doc %.1f below floor %.0f", postingsPerDoc, sp.postingFloor))
	}
	if sp.grid {
		if columnRPCsPerDoc < 1 {
			m.mech = append(m.mech, fmt.Sprintf("node.column_rpcs_per_doc %.2f below 1", columnRPCsPerDoc))
		}
		if err := m.b.assertCommitted(&m.ai); err != nil {
			m.mech = append(m.mech, err.Error())
		}
	}
	if !m.paced.sustainable {
		m.mech = append(m.mech, fmt.Sprintf("paced phase unsustainable at %.0f ops/s: median outstanding operations grew from %.1f to %.1f (limit +%.1f)",
			sp.pacedRate, m.paced.outFirstQ, m.paced.outLastQ, m.paced.growthLimit))
	}
	if m.drainErr != nil {
		m.mech = append(m.mech, m.drainErr.Error())
	}
	if drops := counterDelta(m.s0, m.s3, "delivery.drops.oldest") + counterDelta(m.s0, m.s3, "delivery.drops.disconnect"); drops != 0 {
		m.mech = append(m.mech, fmt.Sprintf("%d delivery events dropped by session policy", drops))
	}
}

// latencies returns the paced phase's match latencies (per document) and
// deliver latencies (per event), each measured from, and keyed by, when
// the document was due.
func (m *measure) latencies() (match, deliver []timedLat) {
	b := m.b
	n := b.nextDoc.Load()
	for d := uint64(1); d <= n && d < maxDocs; d++ {
		rec := &b.recs[d]
		if rec.phase == phPaced && !rec.failed {
			due := b.due[d].Load()
			match = append(match, timedLat{at: due, lat: time.Duration(rec.matched - due)})
		}
	}
	for _, rd := range b.readers {
		rd.mu.Lock()
		for _, s := range rd.samples {
			if b.recs[s.doc].phase == phPaced {
				due := b.due[s.doc].Load()
				deliver = append(deliver, timedLat{at: due, lat: time.Duration(s.read - due)})
			}
		}
		rd.mu.Unlock()
	}
	return match, deliver
}

// result derives the run's figures: end-to-end with trace off, per-layer
// with trace on. Counters and histogram counts are deltas over the
// untraced sat phase unless named otherwise.
func (m *measure) result(traced bool) *result {
	b, v := m.b, m.v
	res := &result{Metrics: map[string]metric{}}
	a, z := m.s0, m.s1
	satDocs := m.satDocs()

	var daemonCPU, hottest time.Duration
	for i := range z.cpu {
		dc := z.cpu[i] - a.cpu[i]
		daemonCPU += dc
		hottest = max(hottest, dc)
	}
	var rss, rssMax int64
	for _, d := range b.daemons {
		if hwm, err := procHWM(d.cmd.Process.Pid); err == nil {
			rss += hwm
			rssMax = max(rssMax, hwm)
		}
	}
	var postings, lists int64
	for i := range z.stats {
		postings += z.stats[i].PostingsScanned - a.stats[i].PostingsScanned
		lists += z.stats[i].PostingLists - a.stats[i].PostingLists
	}
	var satMatches, satHomes int64
	n := b.nextDoc.Load()
	for d := uint64(1); d <= n && d < maxDocs; d++ {
		if rec := &b.recs[d]; rec.phase == phSat {
			satMatches += int64(rec.matches)
			satHomes += int64(rec.homes)
		}
	}
	eventsPerDoc := float64(v.eventsByPh[phSat]) / satDocs
	colRPCs := histCountDelta(a, z, "publish.column.rpc")
	m.mechanisms(eventsPerDoc, float64(postings)/satDocs, float64(colRPCs)/satDocs)

	var allDocs, expEvents int64
	for ph := 0; ph < numPhases; ph++ {
		allDocs += int64(v.docs[ph])
	}
	for d := uint64(1); d <= n && d < maxDocs; d++ {
		expEvents += int64(b.expEv[d])
	}
	res.Attempted = allDocs + int64(v.churnOps) + expEvents
	res.Failed = int64(v.failedDocs+v.churnFailed) + v.lostEvents + v.extraEvents
	res.Correct = res.Failed == 0 && len(v.violations) == 0 && len(m.mech) == 0
	failedFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	docsPerS := float64(v.okDocs[phSat]) / m.satS

	// Throughput, sat CPU per document and latencies (from when each
	// operation was due) are medians over the windows of each window's
	// figure. The sat phase saturates the 2-core host, so its throughput
	// and CPU per document both follow the shared host's speed, which
	// drifts between runs by more than any regression bound the benchmark
	// may set; they are reported with the per-layer figures (and printed on
	// every run). The bounded cost is the daemons' CPU per document at the
	// paced phase's fixed offered load, which holds steady across runs.
	rate, cpuPerDoc := m.satWindows()
	match, deliver := m.latencies()
	matchP50, matchP99 := m.windowQuantiles(m.pacedLo, m.pacedWins, match)
	deliverP50, deliverP99 := m.windowQuantiles(m.pacedLo, m.pacedWins, deliver)
	b.churnMu.Lock()
	_, regP99 := m.windowQuantiles(m.satLo, int((b.now()-m.satLo)/m.period)+1, b.regLat)
	b.churnMu.Unlock()
	lat := &result{Metrics: map[string]metric{}}
	lat.set("docs_per_s", "1/s", median(rate))
	lat.set("cpu_us_per_doc", "us", median(cpuPerDoc))
	lat.set("match_p50_ms", "ms", matchP50)
	lat.set("match_p99_ms", "ms", matchP99)
	lat.set("deliver_p50_ms", "ms", deliverP50)
	lat.set("deliver_p99_ms", "ms", deliverP99)
	lat.set("register_p99_ms", "ms", regP99)
	lat.set("failed_frac", "frac", failedFrac)
	m.latency = lat

	if !traced {
		res.set("paced_cpu_us_per_doc", "us", float64(m.pacedCPU)/1e3/float64(max(v.docs[phPaced], 1)))
		res.set("rss_mb", "MB", float64(rss)/(1<<20))
		res.set("setup_s", "s", m.setupS)
		return res
	}
	for _, name := range lat.order {
		res.set(name, lat.Metrics[name].Unit, lat.Metrics[name].Value)
	}

	// gen
	genCPU := z.gen - a.gen
	res.set("gen.cpu_us_per_doc", "us", float64(genCPU)/1e3/satDocs)
	res.set("gen.core_share", "frac", genCPU.Seconds()/m.satS)
	late := sortDur(m.paced.lateness)
	res.set("gen.late_p99_ms", "ms", ms(percentile(late, 0.99)))
	res.set("gen.backlog_max", "count", float64(m.paced.backlogMax))
	// entry / ring
	res.set("entry.homes_per_doc", "count", float64(satHomes)/satDocs)
	// codec
	res.set("codec.publish_bytes_per_doc", "bytes", float64(z.pubBytes-a.pubBytes)/satDocs)
	res.set("codec.resp_bytes_per_doc", "bytes", float64(z.respBytes-a.respBytes)/satDocs)
	// transport: both directions, daemons plus the bench's own writer
	frames := counterDelta(a, z, "transport.tcp.flush.frames") + z.local.Counters["transport.tcp.flush.frames"] - a.local.Counters["transport.tcp.flush.frames"]
	sys := counterDelta(a, z, "transport.tcp.flush.syscalls") + z.local.Counters["transport.tcp.flush.syscalls"] - a.local.Counters["transport.tcp.flush.syscalls"]
	res.set("transport.frames_per_doc", "count", float64(frames)/satDocs)
	res.set("transport.syscalls_per_doc", "count", float64(sys)/satDocs)
	res.set("transport.frames_per_syscall", "ratio", float64(frames)/float64(max(sys, 1)))
	res.set("transport.queue_bytes_p99", "bytes", float64(histMaxQuantile(z, "transport.tcp.queue.bytes", true)))
	end := m.s3
	res.set("transport.dials", "count", float64(counterDelta(m.s0, end, "transport.tcp.dials")+end.local.Counters["transport.tcp.dials"]-m.s0.local.Counters["transport.tcp.dials"]))
	// resilience
	res.set("resilience.retries", "count", float64(counterDelta(m.s0, end, "rpc.retries")))
	res.set("resilience.giveups", "count", float64(counterDelta(m.s0, end, "rpc.giveups")))
	// node
	res.set("node.home_p50_ms", "ms", float64(histMaxQuantile(z, "publish.home", false))/1e6)
	res.set("node.home_p99_ms", "ms", float64(histMaxQuantile(z, "publish.home", true))/1e6)
	res.set("node.column_rpc_p99_ms", "ms", float64(histMaxQuantile(z, "publish.column.rpc", true))/1e6)
	res.set("node.column_rpcs_per_doc", "count", float64(colRPCs)/satDocs)
	res.set("node.failovers", "count", float64(counterDelta(m.s0, end, "publish.failover")))
	res.set("node.degraded", "count", float64(counterDelta(m.s0, end, "publish.degraded")))
	b.churnMu.Lock()
	res.set("node.register_p99_ms", "ms", ms(percentile(sortDur(b.homeReg), 0.99)))
	res.set("node.unregister_p99_ms", "ms", ms(percentile(sortDur(b.unregL), 0.99)))
	b.churnMu.Unlock()
	// index
	res.set("index.match_term_p50_us", "us", float64(histMaxQuantile(z, "match.term", false))/1e3)
	res.set("index.match_term_p99_us", "us", float64(histMaxQuantile(z, "match.term", true))/1e3)
	res.set("index.posting_read_p99_us", "us", float64(histMaxQuantile(z, "index.posting.read", true))/1e3)
	res.set("index.eval_p99_us", "us", float64(histMaxQuantile(z, "index.eval", true))/1e3)
	res.set("index.postings_per_doc", "count", float64(postings)/satDocs)
	res.set("index.lists_per_doc", "count", float64(lists)/satDocs)
	res.set("index.useful_ratio", "ratio", float64(satMatches)/float64(max(postings, 1)))
	var covers int64
	for _, d := range z.dumps {
		covers += d.Gauges["index.cover.covers"]
	}
	res.set("index.covers", "count", float64(covers))
	// delivery
	dFrames, dSys := counterDelta(a, z, "delivery.flush.frames"), counterDelta(a, z, "delivery.flush.syscalls")
	res.set("delivery.events_per_doc", "count", eventsPerDoc)
	res.set("delivery.queue_depth_p99", "count", float64(histMaxQuantile(z, "delivery.queue.depth", true)))
	res.set("delivery.frames_per_syscall", "ratio", float64(dFrames)/float64(max(dSys, 1)))
	res.set("delivery.syscalls_per_doc", "count", float64(dSys)/satDocs)
	res.set("delivery.flush_batch_p50", "count", float64(histMaxQuantile(z, "delivery.flush.batch", false)))
	res.set("delivery.drops", "count", float64(counterDelta(m.s0, end, "delivery.drops.oldest")+counterDelta(m.s0, end, "delivery.drops.disconnect")))
	res.set("delivery.redelivered", "count", float64(counterDelta(m.s0, end, "delivery.redelivered")))
	// moved processes
	res.set("moved.cpu_share_max", "frac", hottest.Seconds()/max(daemonCPU.Seconds(), 1e-9))
	res.set("moved.goroutines", "count", float64(m.goroutines))
	res.set("moved.rss_mb_max", "MB", float64(rssMax)/(1<<20))
	// alloc
	res.set("alloc.grid_nodes", "count", float64(m.ai.gridNodes))
	res.set("alloc.round_s", "s", m.ai.roundS)
	res.set("alloc.migrated_filters", "count", float64(m.ai.migrated))
	// oracle and tracing
	tracedRate := float64(v.okDocs[phSatTraced]) / m.satTracedS
	res.set("trace.overhead_frac", "frac", 1-tracedRate/docsPerS)
	return res
}

// replayAndLedger adds the span-derived and replay metrics of a traced run
// and prints the layer table.
func (m *measure) replayAndLedger(w *bufio.Writer, res *result) error {
	rows, docs := m.b.spanLedger(phSatTraced)
	get := func(k int) layerRow {
		for _, r := range rows {
			if r.kind == k {
				return r
			}
		}
		return layerRow{}
	}
	res.set("entry.route_us_per_doc", "us", get(spRoute).totalUS)
	res.set("entry.merge_us_per_doc", "us", get(spMerge).totalUS)
	res.set("codec.encode_us_per_doc", "us", get(spEncode).totalUS)
	res.set("codec.decode_us_per_doc", "us", get(spDecode).totalUS)
	res.set("transport.home_rpc_p50_ms", "ms", ms(get(spHomeSend).p50))
	res.set("transport.home_rpc_p99_ms", "ms", ms(get(spHomeSend).p99))
	res.set("transport.deliver_rpc_p99_ms", "ms", ms(get(spDeliverSend).p99))
	res.set("delivery.socket_p50_ms", "ms", ms(get(spRead).p50))
	res.set("delivery.socket_p99_ms", "ms", ms(get(spRead).p99))
	indexUS, codecNS, err := m.b.replay()
	if err != nil {
		return err
	}
	res.set("index.replay_us_per_doc", "us", indexUS)
	res.set("codec.replay_ns_per_doc", "ns", codecNS)
	printLedger(w, m.sp.name+", sat-traced", rows, docs)
	fmt.Fprintf(w, "replay (in-process, single thread): index.MatchTerms %.1f us/doc, codec %.0f ns/doc\n", indexUS, codecNS)
	fmt.Fprintf(w, "per-layer metrics:\n")
	for _, name := range res.order {
		mt := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, mt.Value, mt.Unit)
	}
	return nil
}

// report prints the run's phases, oracle verdict and end-to-end figures.
func (m *measure) report(w *bufio.Writer, traced bool) {
	v := m.v
	fmt.Fprintf(w, "sat: closed loop, %d in flight: %d docs (%d oracle-exact) in %.3fs\n", m.sp.window, v.docs[phSat], v.okDocs[phSat], m.satS)
	rate, cpuPerDoc := m.satWindows()
	fmt.Fprintf(w, "sat windows: docs/s %s; daemon CPU us/doc %s\n", fmtFloats(rate), fmtFloats(cpuPerDoc))
	if traced {
		fmt.Fprintf(w, "sat-traced: %d docs (%d oracle-exact) in %.3fs\n", v.docs[phSatTraced], v.okDocs[phSatTraced], m.satTracedS)
	}
	match, deliver := m.latencies()
	fmt.Fprintf(w, "paced: open loop at %.0f ops/s, %d docs, %d match samples, %d deliver samples, backlog max %d, median outstanding %.1f first quarter, %.1f last (limit +%.1f), sustainable=%v\n",
		m.sp.pacedRate, v.docs[phPaced], len(match), len(deliver), m.paced.backlogMax, m.paced.outFirstQ, m.paced.outLastQ, m.paced.growthLimit, m.paced.sustainable)
	genShare := (m.s1.gen - m.s0.gen).Seconds() / m.satS
	if genShare >= 0.8 {
		fmt.Fprintf(w, "WARNING: generator used %.2f of a core in sat: docs_per_s is generator-bound\n", genShare)
	} else {
		fmt.Fprintf(w, "generator used %.2f of a core in sat\n", genShare)
	}
	fmt.Fprintf(w, "oracle: %d failed docs, %d lost events, %d extra/phantom events, %d churn ops (%d failed), %d churned-filter violations\n",
		v.failedDocs, v.lostEvents, v.extraEvents, v.churnOps, v.churnFailed, v.churnViol)
	for _, s := range v.violations {
		fmt.Fprintf(w, "  violation: %s\n", s)
	}
	for _, s := range m.mech {
		fmt.Fprintf(w, "  mechanism: %s\n", s)
	}
}
