package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/movesys/move/internal/index"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/store"
)

// Span kinds: one per call the bench makes into a layer's public API, plus
// the document root they are all parented to.
const (
	spDoc         = iota // the document through the entry role
	spRoute              // ring.HomeNode grouping of the document's terms
	spEncode             // node.EncodePublishMultiHome / node.EncodeDeliverBatch
	spHomeSend           // transport Send of a publish to a home node
	spDecode             // node.DecodeMatchResp
	spMerge              // match-set merge and oracle check at the entry
	spGroup              // node.GroupMatchesBySub and owner routing
	spDeliverSend        // transport Send of a deliver batch to a session owner
	spRead               // deliver batch sent → event read on the subscriber socket
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"doc", "route", "encode", "home_send", "decode", "merge", "group", "deliver_send", "session_read"}

// spanLayers names the module each span kind's time is charged to.
var spanLayers = [numSpanKinds]string{"entry", "ring", "codec", "transport+node+index", "codec", "entry", "node", "transport+delivery", "delivery"}

// span is one timed call, keyed by document ID and parented to the
// document's root span. Times are ns since the run's base.
type span struct {
	doc        uint32
	kind       uint8
	start, end int64
}

// tracer is one worker's span buffer; nil when tracing is off, and every
// method is a no-op on nil so the untraced path pays one branch per call.
type tracer struct {
	b     *bench
	spans []span
}

func (b *bench) newTracer(phase uint8) *tracer {
	if !b.traceOn || phase != phSatTraced {
		return nil
	}
	return &tracer{b: b, spans: make([]span, 0, 4096)}
}

func (t *tracer) begin(doc uint32, kind uint8) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{doc: doc, kind: kind, start: t.b.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.b.now()
}

// capture keeps a copy of the first match responses per pool document so
// the in-process replay decodes the same frames the daemons sent.
func (t *tracer) capture(pool int32, raw []byte) {
	t.b.spansMu.Lock()
	defer t.b.spansMu.Unlock()
	if t.b.respFrame == nil {
		t.b.respFrame = make(map[int32][][]byte)
	}
	if len(t.b.respFrame[pool]) < 8 && len(t.b.respFrame) < replayDocs {
		t.b.respFrame[pool] = append(t.b.respFrame[pool], append([]byte(nil), raw...))
	}
}

func (b *bench) flushTracer(t *tracer) {
	if t == nil {
		return
	}
	b.spansMu.Lock()
	b.spans = append(b.spans, t.spans...)
	b.spansMu.Unlock()
}

// layerRow is one line of the per-workload layer table.
type layerRow struct {
	kind     int
	count    int
	totalUS  float64 // summed span time per document
	selfUS   float64 // minus the time its child spans cover
	p50, p99 time.Duration
}

// spanLedger folds the spans of the traced documents of `phase` into per
// kind rows. Session reads are synthesized from the readers' samples.
func (b *bench) spanLedger(phase uint8) (rows []layerRow, docs int) {
	byDoc := make(map[uint32][]span)
	for _, s := range b.spans {
		if b.recs[s.doc].phase == phase && s.end > 0 {
			byDoc[s.doc] = append(byDoc[s.doc], s)
		}
	}
	for _, rd := range b.readers {
		rd.mu.Lock()
		for _, rs := range rd.samples {
			if _, ok := byDoc[rs.doc]; ok {
				byDoc[rs.doc] = append(byDoc[rs.doc], span{doc: rs.doc, kind: spRead, start: b.delivAt[rs.doc].Load(), end: rs.read})
			}
		}
		rd.mu.Unlock()
	}
	durs := make([][]time.Duration, numSpanKinds)
	self := make([]float64, numSpanKinds)
	for _, ss := range byDoc {
		var root *span
		for i := range ss {
			if ss[i].kind == spDoc {
				root = &ss[i]
			}
		}
		if root == nil {
			continue
		}
		docs++
		var kids [][2]int64
		for _, s := range ss {
			d := time.Duration(s.end - s.start)
			durs[s.kind] = append(durs[s.kind], d)
			if s.kind == spDoc {
				continue
			}
			self[s.kind] += float64(d)
			lo, hi := max(s.start, root.start), min(s.end, root.end)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		self[spDoc] += float64(root.end-root.start) - float64(covered(kids))
	}
	if docs == 0 {
		return nil, 0
	}
	for k := 0; k < numSpanKinds; k++ {
		s := sortDur(durs[k])
		var total float64
		for _, d := range s {
			total += float64(d)
		}
		rows = append(rows, layerRow{
			kind: k, count: len(s),
			totalUS: total / 1e3 / float64(docs),
			selfUS:  self[k] / 1e3 / float64(docs),
			p50:     percentile(s, 0.50), p99: percentile(s, 0.99),
		})
	}
	return rows, docs
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

func printLedger(w io.Writer, name string, rows []layerRow, docs int) {
	fmt.Fprintf(w, "layer table (%s, %d traced documents; self = span time minus the part its children cover):\n", name, docs)
	fmt.Fprintf(w, "  %-13s %-21s %9s %11s %11s %10s %10s\n", "span", "layer", "per doc", "us/doc", "self us/doc", "p50 ms", "p99 ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-13s %-21s %9.2f %11.1f %11.1f %10.3f %10.3f\n", spanNames[r.kind], spanLayers[r.kind],
			float64(r.count)/float64(docs), r.totalUS, r.selfUS, ms(r.p50), ms(r.p99))
	}
}

// replayDocs bounds the in-process replay.
const replayDocs = 512

// replay is the socket-free cost of the index and codec layers on the
// workload's own inputs: one single-threaded index.New loaded with every
// stable filter, timed per document through (*Index).MatchTerms, and the
// node encoders/decoders timed on the frames captured during the run.
func (b *bench) replay() (indexUS, codecNS float64, err error) {
	st, err := store.Open("", store.Options{})
	if err != nil {
		return 0, 0, err
	}
	ix, err := index.New(st)
	if err != nil {
		return 0, 0, err
	}
	for _, f := range b.wl.filters {
		if err := ix.Register(f, f.Terms); err != nil {
			return 0, 0, err
		}
	}
	n := min(replayDocs, len(b.wl.docs))
	var matchT time.Duration
	for i := 0; i < n; i++ {
		doc := model.Document{ID: uint64(i + 1), Terms: b.wl.docs[i]}
		t0 := time.Now()
		if _, _, err := ix.MatchTerms(&doc, doc.Terms); err != nil {
			return 0, 0, err
		}
		matchT += time.Since(t0)
	}
	var codecT time.Duration
	var codecDocs int
	for pool, frames := range b.respFrame {
		byHome, homes, err := b.homesOf(b.wl.docs[pool])
		if err != nil {
			return 0, 0, err
		}
		doc := model.Document{ID: uint64(pool + 1), Terms: b.wl.docs[pool]}
		t0 := time.Now()
		for _, h := range homes {
			_ = node.EncodePublishMultiHome(node.PublishMultiReq{Doc: doc, Terms: byHome[h]})
		}
		for _, raw := range frames[:min(len(frames), len(homes))] {
			if _, err := node.DecodeMatchResp(raw); err != nil {
				return 0, 0, err
			}
		}
		codecT += time.Since(t0)
		codecDocs++
	}
	indexUS = float64(matchT) / 1e3 / float64(n)
	if codecDocs > 0 {
		codecNS = float64(codecT) / float64(codecDocs)
	}
	return indexUS, codecNS, nil
}
