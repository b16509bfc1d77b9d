package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// maxDocs bounds the per-document oracle arrays of one run.
const maxDocs = 1 << 18

// Phases a document or operation belongs to.
const (
	phWarm   = iota // set-up warm-up: documents only
	phSettle        // full operation mix, run before measuring and not reported
	phSat
	phSatTraced
	phPaced
	numPhases
)

// docRec is the entry-side record of one published document, written only
// by the worker that published it.
type docRec struct {
	pool    int32
	phase   uint8
	failed  bool // RPC error or match-set oracle violation
	ok      bool // set by check: match set and every delivered event exact
	homes   int16
	matches int32
	start   int64 // ns since bench.base: first home RPC about to be sent
	matched int64 // complete match set merged at the entry
	end     int64 // last deliver batch accepted by its session owner
	churn   []model.FilterID
}

// churnRec is one churned filter's lifetime as the entry observed it.
type churnRec struct {
	f          model.Filter
	regStart   int64
	regDone    int64 // 0 until the register returned
	unregStart int64 // 0 while registered
	unregDone  int64
	failed     bool
}

// timedLat is one latency sample keyed by when its operation started.
type timedLat struct {
	at  int64
	lat time.Duration
}

// readSample is one event read on a subscriber socket.
type readSample struct {
	doc  uint32
	read int64
}

// reader is one live subscriber session's receive loop state.
type reader struct {
	mu      sync.Mutex
	samples []readSample
}

// bench is one run: the spawned daemons, the bench's own transport acting
// as the entry node, the attached sessions and the oracle state.
type bench struct {
	wl      *workload
	dir     string
	daemons []*daemon
	client  *transport.TCPNode
	reg     *metrics.Registry
	r       *ring.Ring
	owner   map[string]ring.NodeID // subscriber → session owner
	subAddr map[ring.NodeID]string
	base    time.Time

	sessions []*delivery.Client
	readers  []*reader
	readerWG sync.WaitGroup

	nextDoc  atomic.Uint64
	recs     []docRec
	due      []atomic.Int64 // ns since base the document was due
	delivAt  []atomic.Int64 // ns since base its first deliver batch was sent
	recvN    []atomic.Int32
	recvHash []atomic.Uint64
	expEv    []int32
	expEvH   []uint64
	expTotal atomic.Int64 // events expected so far
	recvTot  atomic.Int64
	phantom  atomic.Int64 // events for documents never published

	pubBytes  atomic.Int64
	respBytes atomic.Int64

	ops     atomic.Int64
	churnMu sync.Mutex
	churn   []*churnRec
	live    []*churnRec
	regLat  []timedLat      // whole register op (every home), by start time
	homeReg []time.Duration // one register RPC
	unregL  []time.Duration

	traceOn   bool
	spansMu   sync.Mutex
	spans     []span
	respFrame map[int32][][]byte // captured match responses, for replay
}

func newBench(wl *workload, dir string) *bench {
	return &bench{
		wl:       wl,
		dir:      dir,
		recs:     make([]docRec, maxDocs),
		due:      make([]atomic.Int64, maxDocs),
		delivAt:  make([]atomic.Int64, maxDocs),
		recvN:    make([]atomic.Int32, maxDocs),
		recvHash: make([]atomic.Uint64, maxDocs),
		expEv:    make([]int32, maxDocs),
		expEvH:   make([]uint64, maxDocs),
	}
}

func (b *bench) now() int64 { return int64(time.Since(b.base)) }

// setup brings a cluster to a warm steady state: spawn the daemons, wait
// for wire readiness, register the stable filters, attach every session,
// install grids (grid-churn) and warm the full pipeline.
func (b *bench) setup(movedBin string, nodes int, gridInfo *allocInfo) error {
	b.base = time.Now()
	ds, err := spawnDaemons(b.dir, movedBin, nodes)
	b.daemons = ds
	if err != nil {
		return err
	}
	peers := make(map[ring.NodeID]string, len(ds))
	b.subAddr = make(map[ring.NodeID]string, len(ds))
	b.r = ring.New(ring.Config{})
	for _, d := range ds {
		peers[d.id] = d.addr
		b.subAddr[d.id] = d.subAddr
		if err := b.r.Add(ring.Member{ID: d.id, Rack: "rack-0"}); err != nil {
			return err
		}
	}
	b.reg = metrics.NewRegistry()
	b.client, err = transport.NewTCPOpts("bench-entry", "127.0.0.1:0",
		func(context.Context, ring.NodeID, []byte) ([]byte, error) {
			return nil, fmt.Errorf("bench entry serves no requests")
		},
		transport.StaticResolver(peers),
		transport.TCPOptions{Conns: hostCPUs(), DialBackoff: 50 * time.Millisecond, Metrics: b.reg})
	if err != nil {
		return err
	}
	if err := waitReady(b.client, ds); err != nil {
		return err
	}
	if err := b.registerStable(); err != nil {
		return err
	}
	if err := b.attachSessions(); err != nil {
		return err
	}
	b.runClosed(phWarm, 0, b.wl.warmDocs, b.wl.window)
	if b.wl.grid {
		if err := b.allocate(gridInfo); err != nil {
			return err
		}
		b.runClosed(phWarm, 0, b.wl.warmDocs, b.wl.window)
	}
	return b.drain()
}

func (b *bench) teardown() {
	for _, cl := range b.sessions {
		_ = cl.Close()
	}
	b.readerWG.Wait()
	if b.client != nil {
		_ = b.client.Close()
	}
	stopDaemons(b.daemons)
}

func (b *bench) homesOf(terms []string) (map[ring.NodeID][]string, []ring.NodeID, error) {
	byHome := make(map[ring.NodeID][]string, 4)
	var homes []ring.NodeID
	for _, t := range terms {
		h, err := b.r.HomeNode(t)
		if err != nil {
			return nil, nil, err
		}
		if _, ok := byHome[h]; !ok {
			homes = append(homes, h)
		}
		byHome[h] = append(byHome[h], t)
	}
	return byHome, homes, nil
}

// register sends a filter to the home node of each of its terms, as
// cluster.Register does; a home with a grid forwards it to the grid column.
func (b *bench) register(ctx context.Context, f model.Filter, homeLat *[]time.Duration) error {
	byHome, homes, err := b.homesOf(f.Terms)
	if err != nil {
		return err
	}
	for _, h := range homes {
		t0 := time.Now()
		if _, err := b.client.Send(ctx, h, node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: byHome[h]})); err != nil {
			return fmt.Errorf("register %d on %s: %w", f.ID, h, err)
		}
		if homeLat != nil {
			*homeLat = append(*homeLat, time.Since(t0))
		}
	}
	return nil
}

func (b *bench) registerStable() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.wl.filters) || firstErr.Load() != nil {
					return
				}
				if err := b.register(ctx, b.wl.filters[i], nil); err != nil {
					firstErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// attachSessions opens one TCP delivery session per subscriber on its
// session owner and starts its receive loop.
func (b *bench) attachSessions() error {
	b.owner = make(map[string]ring.NodeID, len(b.wl.subs))
	for _, sub := range b.wl.subs {
		own, err := b.r.HomeNode("subscriber/" + sub)
		if err != nil {
			return err
		}
		b.owner[sub] = own
		cl, err := delivery.Dial(b.subAddr[own], sub, 0)
		if err != nil {
			return fmt.Errorf("session %s on %s: %w", sub, own, err)
		}
		b.sessions = append(b.sessions, cl)
		rd := &reader{}
		b.readers = append(b.readers, rd)
		b.readerWG.Add(1)
		go b.readLoop(cl, sub, rd)
	}
	return nil
}

func (b *bench) readLoop(cl *delivery.Client, sub string, rd *reader) {
	defer b.readerWG.Done()
	for {
		msg, err := cl.Recv()
		if err != nil || msg.Bye != "" {
			return
		}
		at := b.now()
		rd.mu.Lock()
		for _, ev := range msg.Events {
			d := ev.DocID
			if d == 0 || d > b.nextDoc.Load() || d >= maxDocs {
				b.phantom.Add(1)
				continue
			}
			var h uint64
			for _, id := range ev.Filters {
				h += eventHash(sub, id)
			}
			b.recvN[d].Add(1)
			b.recvHash[d].Add(h)
			rd.samples = append(rd.samples, readSample{doc: uint32(d), read: at})
		}
		rd.mu.Unlock()
		b.recvTot.Add(int64(len(msg.Events)))
		if len(msg.Events) > 0 {
			if err := cl.Ack(msg.Events[len(msg.Events)-1].Seq); err != nil {
				return
			}
		}
	}
}

// publish drives one document through the entry role over real sockets:
// route terms to homes, one multi-term publish RPC per home, merge and
// check the match set, then one deliver batch per session owner.
func (b *bench) publish(ctx context.Context, phase uint8, dueNS int64, tr *tracer) {
	d := b.nextDoc.Add(1)
	if d >= maxDocs {
		return
	}
	rec := &b.recs[d]
	rec.phase = phase
	rec.pool = int32((d - 1) % uint64(len(b.wl.docs)))
	b.due[d].Store(dueNS)
	terms := b.wl.docs[rec.pool]
	doc := model.Document{ID: d, Terms: terms}
	rec.start = b.now()
	root := tr.begin(uint32(d), spDoc)

	sp := tr.begin(uint32(d), spRoute)
	byHome, homes, err := b.homesOf(terms)
	tr.end(sp)
	if err != nil {
		rec.failed = true
		return
	}
	rec.homes = int16(len(homes))
	seen := make(map[model.FilterID]string, 16)
	for _, h := range homes {
		sp = tr.begin(uint32(d), spEncode)
		payload := node.EncodePublishMultiHome(node.PublishMultiReq{Doc: doc, Terms: byHome[h]})
		tr.end(sp)
		b.pubBytes.Add(int64(len(payload)))
		sp = tr.begin(uint32(d), spHomeSend)
		raw, err := b.client.Send(ctx, h, payload)
		tr.end(sp)
		if err != nil {
			rec.failed = true
			return
		}
		b.respBytes.Add(int64(len(raw)))
		if tr != nil {
			tr.capture(rec.pool, raw)
		}
		sp = tr.begin(uint32(d), spDecode)
		resp, err := node.DecodeMatchResp(raw)
		tr.end(sp)
		if err != nil || resp.Degraded {
			rec.failed = true
			return
		}
		sp = tr.begin(uint32(d), spMerge)
		for _, m := range resp.Matches {
			seen[m.Filter] = m.Subscriber
		}
		tr.end(sp)
	}

	sp = tr.begin(uint32(d), spMerge)
	var n int32
	var h uint64
	matches := make([]node.Match, 0, len(seen))
	for id, sub := range seen {
		if id >= churnBase {
			rec.churn = append(rec.churn, id)
		} else {
			n++
			h += filterHash(id)
		}
		matches = append(matches, node.Match{Filter: id, Subscriber: sub})
	}
	rec.matches = int32(len(seen))
	tr.end(sp)
	rec.matched = b.now()
	if n != b.wl.expN[rec.pool] || h != b.wl.expHash[rec.pool] {
		rec.failed = true
	}

	sp = tr.begin(uint32(d), spGroup)
	byOwner := make(map[ring.NodeID][]delivery.Notification, 4)
	var owners []ring.NodeID
	notifs := node.GroupMatchesBySub(matches)
	for _, nt := range notifs {
		own := b.owner[nt.Sub]
		if _, ok := byOwner[own]; !ok {
			owners = append(owners, own)
		}
		byOwner[own] = append(byOwner[own], nt)
	}
	tr.end(sp)
	b.expEv[d], b.expEvH[d] = int32(len(notifs)), b.knownEventHash(matches)
	b.expTotal.Add(int64(len(notifs)))
	b.delivAt[d].Store(b.now())
	for _, own := range owners {
		sp = tr.begin(uint32(d), spEncode)
		payload := node.EncodeDeliverBatch(&delivery.Batch{DocID: d, Terms: terms, Notifs: byOwner[own]})
		tr.end(sp)
		sp = tr.begin(uint32(d), spDeliverSend)
		_, err := b.client.Send(ctx, own, payload)
		tr.end(sp)
		if err != nil {
			rec.failed = true
		}
	}
	rec.end = b.now()
	tr.end(root)
}

// knownEventHash sums eventHash over a match set, taking each filter's
// subscriber from the filter as the bench registered it rather than from
// the match response, so a match routed to the wrong subscriber shows as a
// delivered-event mismatch.
func (b *bench) knownEventHash(matches []node.Match) uint64 {
	var h uint64
	locked := false
	for _, m := range matches {
		var sub string
		if m.Filter < churnBase {
			if i := int(m.Filter) - 1; i >= 0 && i < len(b.wl.filters) {
				sub = b.wl.filters[i].Subscriber
			}
		} else {
			if !locked {
				b.churnMu.Lock()
				locked = true
			}
			if i := uint64(m.Filter - churnBase); i < uint64(len(b.churn)) {
				sub = b.churn[i].f.Subscriber
			}
		}
		h += eventHash(sub, m.Filter)
	}
	if locked {
		b.churnMu.Unlock()
	}
	return h
}

// churnOp registers a fresh filter or unregisters the oldest live one,
// keeping wl.churnLive churned filters registered.
func (b *bench) churnOp(ctx context.Context, phase uint8) {
	b.churnMu.Lock()
	if len(b.live) >= b.wl.churnLive {
		c := b.live[0]
		b.live = b.live[1:]
		c.unregStart = b.now()
		b.churnMu.Unlock()
		t0 := time.Now()
		payload := node.EncodeUnregister(c.f.ID)
		for _, d := range b.daemons {
			if _, err := b.client.Send(ctx, d.id, payload); err != nil {
				c.failed = true
			}
		}
		lat := time.Since(t0)
		b.churnMu.Lock()
		c.unregDone = b.now()
		b.unregL = append(b.unregL, lat)
		b.churnMu.Unlock()
		return
	}
	c := &churnRec{f: model.Filter{
		ID:         churnBase + model.FilterID(len(b.churn)),
		Subscriber: b.wl.subs[b.wl.churnRng.Intn(len(b.wl.subs))],
		Terms:      b.wl.churnTerms(),
		Mode:       b.wl.mode,
	}}
	b.churn = append(b.churn, c)
	c.regStart = b.now()
	b.churnMu.Unlock()
	t0 := time.Now()
	var homeLat []time.Duration
	err := b.register(ctx, c.f, &homeLat)
	lat := time.Since(t0)
	b.churnMu.Lock()
	defer b.churnMu.Unlock()
	if err != nil {
		// A failed register may have reached some homes: keep it out of the
		// live set (never unregistered, so never expected to match).
		c.failed = true
		return
	}
	c.regDone = b.now()
	b.regLat = append(b.regLat, timedLat{at: c.regStart, lat: lat})
	b.homeReg = append(b.homeReg, homeLat...)
	b.live = append(b.live, c)
}

// step runs the next operation of the stream: every churnEvery-th one is a
// filter register or unregister, the rest are documents.
func (b *bench) step(ctx context.Context, phase uint8, dueNS int64, tr *tracer) {
	i := b.ops.Add(1)
	if phase != phWarm && b.wl.churnEvery > 0 && i%int64(b.wl.churnEvery) == 0 {
		b.churnOp(ctx, phase)
		return
	}
	b.publish(ctx, phase, dueNS, tr)
}

// runClosed is a closed loop with `window` operations in flight, running
// for dur or (dur = 0) until count documents were started.
func (b *bench) runClosed(phase uint8, dur time.Duration, count, window int) {
	ctx, cancel := context.WithTimeout(context.Background(), dur+2*time.Minute)
	defer cancel()
	deadline := time.Now().Add(dur)
	var started atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := b.newTracer(phase)
			defer b.flushTracer(tr)
			for {
				if dur > 0 && time.Now().After(deadline) {
					return
				}
				if dur == 0 && started.Add(1) > int64(count) {
					return
				}
				b.step(ctx, phase, b.now(), tr)
			}
		}()
	}
	wg.Wait()
}

// pacedStats is the open-loop generator's own account of how well it kept
// to its schedule.
type pacedStats struct {
	lateness    []time.Duration
	backlogMax  int     // operations due but not yet taken by a worker
	outFirstQ   float64 // median outstanding (queued plus in flight) operations, first quarter
	outLastQ    float64 // the same over the last quarter
	growthLimit float64 // largest rise from outFirstQ to outLastQ deemed steady
	sustainable bool
}

// pacedGrowthLatency bounds how far the paced phase's latency may rise from
// its first quarter to its last before the rate counts as more than the
// host can hold. By Little's law that is a rise of rate times this in the
// number of outstanding operations: 5 at 100 ops/s, about 1% of the
// phase's operations. Quarters are compared by their medians, so a brief
// stall does not count, while a pile-up over the phase does. The bound
// sits above the paced p99 latencies, because on a shared host a slow
// spell raises the in-flight count by a few operations without any queue
// forming.
const pacedGrowthLatency = 50 * time.Millisecond

// runPaced is an open loop: operation i is due at start + i/rate and is
// timed from then, whether or not a worker was free.
func (b *bench) runPaced(rate float64, dur time.Duration, workers int) pacedStats {
	ctx, cancel := context.WithTimeout(context.Background(), dur+2*time.Minute)
	defer cancel()
	type item struct{ due int64 }
	total := int(rate * dur.Seconds())
	ch := make(chan item, total+1)
	var taken, done atomic.Int64
	var wg sync.WaitGroup
	lateMu := sync.Mutex{}
	var late []time.Duration
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := b.newTracer(phPaced)
			defer b.flushTracer(tr)
			var mine []time.Duration
			for it := range ch {
				taken.Add(1)
				mine = append(mine, time.Duration(b.now()-it.due))
				b.step(ctx, phPaced, it.due, tr)
				done.Add(1)
			}
			lateMu.Lock()
			late = append(late, mine...)
			lateMu.Unlock()
		}()
	}
	period := float64(time.Second) / rate
	start := b.now()
	outstanding := make([]float64, 0, total)
	ps := pacedStats{}
	for i := 0; i < total; i++ {
		due := start + int64(float64(i)*period)
		if wait := due - b.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		ch <- item{due: due}
		if bl := i + 1 - int(taken.Load()); bl > ps.backlogMax {
			ps.backlogMax = bl
		}
		outstanding = append(outstanding, float64(i+1-int(done.Load())))
	}
	close(ch)
	wg.Wait()
	ps.lateness = late
	if q := len(outstanding) / 4; q > 0 {
		ps.outFirstQ = median(outstanding[:q])
		ps.outLastQ = median(outstanding[len(outstanding)-q:])
	}
	// Outstanding operations that pile up over the phase mean the host
	// cannot hold the rate, so its latencies would measure the queue, not
	// the system.
	ps.growthLimit = rate * pacedGrowthLatency.Seconds()
	ps.sustainable = ps.outLastQ-ps.outFirstQ <= ps.growthLimit
	return ps
}

// drain waits until every expected event reached its session.
func (b *bench) drain() error {
	deadline := time.Now().Add(30 * time.Second)
	for b.recvTot.Load() < b.expTotal.Load() {
		if time.Now().After(deadline) {
			return fmt.Errorf("delivery never drained: %d/%d events", b.recvTot.Load(), b.expTotal.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// verdict is the oracle's account of one run.
type verdict struct {
	docs        [numPhases]int
	okDocs      [numPhases]int
	failedDocs  int
	lostEvents  int64
	extraEvents int64
	churnViol   int
	churnOps    int
	churnFailed int
	eventsByPh  [numPhases]int64
	violations  []string
}

// check applies the oracle to every document published so far: the stable
// match set exactly, churned filters inside their registration windows,
// delivered events equal to the returned match set, no phantoms.
func (b *bench) check() verdict {
	var v verdict
	n := b.nextDoc.Load()
	if n >= maxDocs {
		n = maxDocs - 1
	}
	b.churnMu.Lock()
	churn := append([]*churnRec(nil), b.churn...)
	b.churnMu.Unlock()
	byID := make(map[model.FilterID]*churnRec, len(churn))
	for _, c := range churn {
		byID[c.f.ID] = c
		v.churnOps++
		if c.unregStart != 0 {
			v.churnOps++
		}
		if c.failed {
			v.churnFailed++
		}
	}
	viol := func(format string, args ...any) {
		if len(v.violations) < 8 {
			v.violations = append(v.violations, fmt.Sprintf(format, args...))
		}
	}
	for d := uint64(1); d <= n; d++ {
		rec := &b.recs[d]
		v.docs[rec.phase]++
		bad := rec.failed
		if bad {
			viol("doc %d: RPC failure or stable match-set mismatch", d)
		}
		got, gotH := b.recvN[d].Load(), b.recvHash[d].Load()
		if got < b.expEv[d] {
			v.lostEvents += int64(b.expEv[d] - got)
		} else if got > b.expEv[d] {
			v.extraEvents += int64(got - b.expEv[d])
		}
		v.eventsByPh[rec.phase] += int64(got)
		if got != b.expEv[d] || gotH != b.expEvH[d] {
			bad = true
			viol("doc %d: delivered %d events (hash %x), match set implies %d (hash %x)", d, got, gotH, b.expEv[d], b.expEvH[d])
		}
		matched := make(map[model.FilterID]bool, len(rec.churn))
		for _, id := range rec.churn {
			matched[id] = true
			c := byID[id]
			var why string
			switch {
			case c == nil:
				why = "phantom filter"
			case !matches(&c.f, b.wl.docSets[rec.pool]):
				why = "filter does not match the document"
			case c.unregDone != 0 && rec.start > c.unregDone:
				why = "filter matched after its unregister finished"
			case rec.matched < c.regStart:
				why = "filter matched before its register started"
			}
			if why != "" {
				bad = true
				v.churnViol++
				viol("doc %d: churned filter %d: %s", d, id, why)
			}
		}
		if !rec.failed {
			for _, c := range churn {
				if c.failed || c.regDone == 0 || c.regDone >= rec.start || matched[c.f.ID] {
					continue
				}
				if c.unregStart != 0 && c.unregStart <= rec.matched {
					continue
				}
				if matches(&c.f, b.wl.docSets[rec.pool]) {
					bad = true
					v.churnViol++
					viol("doc %d: filter %d registered for its whole publish but did not match", d, c.f.ID)
				}
			}
		}
		if bad {
			v.failedDocs++
		} else {
			rec.ok = true
			v.okDocs[rec.phase]++
		}
	}
	if p := b.phantom.Load(); p > 0 {
		v.extraEvents += p
		viol("%d events for documents never published", p)
	}
	return v
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDur(v []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
