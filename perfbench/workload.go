package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"github.com/movesys/move/internal/model"
)

// spec shapes one named workload. Every size is fixed here so that a seed
// alone determines the inputs; the daemons receive only the generated
// filters and documents.
type spec struct {
	name string
	why  string

	vocab        int     // shared term vocabulary size
	filterZipf   float64 // skew exponent of filter terms (>= 1 is Zipf)
	docZipf      float64 // skew exponent of document terms (0 = uniform)
	filters      int     // stable filters registered during set-up
	filterTerms  [2]int  // min, max terms per filter
	mode         model.MatchMode
	subs         int    // subscribers, each with one live session
	docTerms     [2]int // min, max terms per document
	docPool      int    // distinct documents, cycled with fresh IDs
	churnEvery   int    // every churnEvery-th operation is a register or unregister; 0 = none
	churnLive    int    // churned filters kept registered at once
	grid         bool   // MOVE placement: install allocation grids after warm-up
	window       int    // sat: documents in flight
	setups       int    // set-ups per run; setup_s is their median
	warmDocs     int    // documents each warm-up pass publishes
	pacedRate    float64
	eventsFloor  float64 // mechanism bounds (see measure.mechanisms)
	eventsCeil   float64
	postingFloor float64
}

// specs are the benchmark's workloads. Paced rates sit at about a third of
// the sat throughput measured on a 2-core host: at half, the shared host's
// slow periods pushed the open loop into saturation.
var specs = map[string]*spec{
	"fanout": {
		name:  "fanout",
		why:   "IL placement, short Zipf docs fanning out to tens of live sessions: stresses delivery routing, hub enqueue/flush and socket writes; control for index and grid changes",
		vocab: 20000, filterZipf: 1.05, docZipf: 1.05,
		filters: 200, filterTerms: [2]int{1, 2}, mode: model.MatchAny,
		subs: 200, docTerms: [2]int{8, 8}, docPool: 4096,
		window: 32, pacedRate: 250, setups: 3, warmDocs: 1500,
		eventsFloor: 10,
	},
	"match": {
		name:  "match",
		why:   "IL placement, 1e5 MatchAll filters and 64-128-term docs reaching every home: index scans and large frames dominate, delivery light; control for delivery changes",
		vocab: 20000, filterZipf: 1.05, docZipf: 0.15,
		filters: 100000, filterTerms: [2]int{2, 3}, mode: model.MatchAll,
		subs: 64, docTerms: [2]int{64, 128}, docPool: 2048,
		window: 16, pacedRate: 100, setups: 1, warmDocs: 500,
		eventsCeil: 16, postingFloor: 1000,
	},
	"grid-churn": {
		name:  "grid-churn",
		why:   "MOVE grids installed by a live coordinator round, plus register/unregister churn: home-to-column fan-out, node-to-node frames, index writes; the only grid workload",
		vocab: 5000, filterZipf: 0.8, docZipf: 1.1,
		filters: 10000, filterTerms: [2]int{2, 2}, mode: model.MatchAll,
		subs: 64, docTerms: [2]int{8, 12}, docPool: 4096,
		churnEvery: 8, churnLive: 32, grid: true,
		window: 32, pacedRate: 100, setups: 1, warmDocs: 800,
	},
}

// workload is one seed's generated inputs plus the brute-force oracle over
// the stable filter set.
type workload struct {
	*spec
	filters    []model.Filter
	subs       []string
	docs       [][]string        // sorted terms
	docSets    []map[string]bool // term membership per pool document
	expN       []int32           // expected stable matches per pool doc
	expHash    []uint64          // sum of filterHash over them
	churnRng   *rand.Rand        // draws churned filter definitions
	churnTerms func() []string
	expTotal   int64
}

func termName(rank uint64) string { return fmt.Sprintf("t%05d", rank) }

// filterHash and eventHash are the order-independent per-document checksum
// terms (FNV-1a), summed over a match set and over delivered events.
func filterHash(id model.FilterID) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	h.Write(b[:])
	return h.Sum64()
}

// eventHash is FNV-1a over the subscriber name then the filter ID's
// little-endian bytes, inlined: the session readers call it per event.
func eventHash(sub string, id model.FilterID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(sub); i++ {
		h = (h ^ uint64(sub[i])) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(id>>(8*i)))) * prime
	}
	return h
}

// churnBase is the first churned filter ID; stable filters sit below it.
const churnBase = model.FilterID(1) << 40

func buildWorkload(sp *spec, seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	wl := &workload{spec: sp}
	filterCDF := powerCDF(sp.vocab, sp.filterZipf)
	docCDF := powerCDF(sp.vocab, sp.docZipf)

	wl.subs = make([]string, sp.subs)
	for i := range wl.subs {
		wl.subs[i] = fmt.Sprintf("sub-%04d", i)
	}
	filterTerms := drawSets(rng, filterCDF, sp.filters, sp.filterTerms)
	wl.filters = make([]model.Filter, sp.filters)
	for i := range wl.filters {
		wl.filters[i] = model.Filter{
			ID:         model.FilterID(i + 1),
			Subscriber: wl.subs[i%sp.subs],
			Terms:      filterTerms[i],
			Mode:       sp.mode,
		}
	}
	wl.docs = drawSets(rng, docCDF, sp.docPool, sp.docTerms)
	wl.docSets = make([]map[string]bool, sp.docPool)
	for i, terms := range wl.docs {
		set := make(map[string]bool, len(terms))
		for _, t := range terms {
			set[t] = true
		}
		wl.docSets[i] = set
	}
	wl.churnRng = rand.New(rand.NewSource(seed ^ 0x5eed))
	wl.churnTerms = func() []string {
		return drawSets(wl.churnRng, filterCDF, 1, sp.filterTerms)[0]
	}
	wl.buildOracle()
	return wl
}

// powerCDF is the cumulative distribution of term ranks with weight
// (1+rank)^-s over the vocabulary: Zipf for s >= 1, a weaker skew below
// that, uniform for s = 0.
func powerCDF(vocab int, s float64) []float64 {
	cdf := make([]float64, vocab)
	var total float64
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

// drawSets draws n sorted sets of distinct terms, each of a size uniform
// in size. Draws are stratified: the i-th of all m draws inverts the CDF
// at a uniform point of the i-th of m equal slices of [0,1), in a seeded
// random order, so every seed sees nearly the same rank histogram (and so
// nearly the same cost) while which set gets which term stays random.
// A duplicate within one set is redrawn unstratified.
func drawSets(rng *rand.Rand, cdf []float64, n int, size [2]int) [][]string {
	sizes := make([]int, n)
	m := 0
	for i := range sizes {
		sizes[i] = size[0]
		if size[1] > size[0] {
			sizes[i] += rng.Intn(size[1] - size[0] + 1)
		}
		m += sizes[i]
	}
	perm := rng.Perm(m)
	rank := func(u float64) int { return min(sort.SearchFloat64s(cdf, u), len(cdf)-1) }
	out := make([][]string, n)
	j := 0
	for i := range out {
		seen := make(map[int]bool, sizes[i])
		set := make([]string, 0, sizes[i])
		for len(set) < sizes[i] {
			var r int
			if j < m {
				r = rank((float64(perm[j]) + rng.Float64()) / float64(m))
				j++
			} else {
				r = rank(rng.Float64())
			}
			if !seen[r] {
				seen[r] = true
				set = append(set, termName(uint64(r)))
			}
		}
		sort.Strings(set)
		out[i] = set
	}
	return out
}

// buildOracle computes each pool document's stable match set by brute
// force: MatchAny filters through a term→filters map, MatchAll filters
// indexed under one of their terms and checked term by term.
func (wl *workload) buildOracle() {
	byTerm := make(map[string][]int32)
	for i, f := range wl.filters {
		if f.Mode == model.MatchAll {
			// Index under the rarest term (highest rank) to keep lists short.
			byTerm[f.Terms[len(f.Terms)-1]] = append(byTerm[f.Terms[len(f.Terms)-1]], int32(i))
			continue
		}
		for _, t := range f.Terms {
			byTerm[t] = append(byTerm[t], int32(i))
		}
	}
	wl.expN = make([]int32, len(wl.docs))
	wl.expHash = make([]uint64, len(wl.docs))
	stamp := make([]int32, len(wl.filters))
	for d, terms := range wl.docs {
		for _, t := range terms {
			for _, fi := range byTerm[t] {
				if stamp[fi] == int32(d+1) {
					continue
				}
				stamp[fi] = int32(d + 1)
				if !matches(&wl.filters[fi], wl.docSets[d]) {
					continue
				}
				wl.expN[d]++
				wl.expHash[d] += filterHash(wl.filters[fi].ID)
			}
		}
		wl.expTotal += int64(wl.expN[d])
	}
}

// matches is the brute-force predicate for MatchAny and MatchAll filters.
func matches(f *model.Filter, doc map[string]bool) bool {
	if f.Mode == model.MatchAll {
		for _, t := range f.Terms {
			if !doc[t] {
				return false
			}
		}
		return true
	}
	for _, t := range f.Terms {
		if doc[t] {
			return true
		}
	}
	return false
}
