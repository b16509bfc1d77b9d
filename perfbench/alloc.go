package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
)

// allocInfo records the coordinator round the bench ran in set-up.
type allocInfo struct {
	gridNodes int
	roundS    float64
	migrated  int64
	hot       []ring.NodeID
	shapes    string
}

// gridEpoch is the epoch of the bench's single allocation round.
const gridEpoch = 1

// allocate acts as the §V coordinator once, the way cluster.Allocate does
// for the in-process harness: pull every daemon's statistics, solve the
// allocation with alloc.Compute, lay each grid out on
// ring.AllocationNodesOf peers with alloc.FitGrid, then install the grids
// two-phase (prepare every home, then broadcast the commit barrier).
func (b *bench) allocate(ai *allocInfo) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	*ai = allocInfo{}
	t0 := time.Now()
	var units []alloc.Unit
	var totalPub, totalScan int64
	stats := make([]node.StatsResp, len(b.daemons))
	for i, d := range b.daemons {
		st, err := b.statsPull(d.id)
		if err != nil {
			return err
		}
		stats[i] = st
		totalPub += st.HomePublishes
		totalScan += st.PostingsScanned
	}
	P := len(b.wl.filters)
	for i, d := range b.daemons {
		u := alloc.Unit{Key: string(d.id), Popularity: float64(stats[i].Filters) / float64(P)}
		if totalPub > 0 {
			u.Frequency = float64(stats[i].HomePublishes) / float64(totalPub)
		}
		if totalScan > 0 {
			u.Load = float64(stats[i].PostingsScanned) / float64(totalScan)
		}
		units = append(units, u)
	}
	factors, err := alloc.Compute(alloc.Input{
		Units:        units,
		TotalFilters: P,
		TotalDocs:    b.wl.warmDocs,
		Nodes:        len(b.daemons),
		// Per-node capacity of half the filter set: the hottest home's
		// share no longer fits one node, so its grid needs columns.
		Capacity: P / 2,
	}, alloc.StrategyGeneral, nil)
	if err != nil {
		return err
	}
	type prep struct {
		home ring.NodeID
		grid *alloc.Grid
	}
	var preps []prep
	var shapes []string
	for _, f := range factors {
		if f.Rows*f.Cols <= 1 {
			continue
		}
		home := ring.NodeID(f.Key)
		peers, err := b.r.AllocationNodesOf(home, f.Rows*f.Cols, ring.PlacementHybrid)
		if err != nil {
			return err
		}
		g, err := alloc.FitGrid(f.Rows, f.Cols, peers)
		if err != nil {
			return err
		}
		if g.Size() <= 1 {
			continue
		}
		preps = append(preps, prep{home: home, grid: g})
		shapes = append(shapes, fmt.Sprintf("%s:%dx%d", home, g.Rows(), g.Cols()))
		ai.gridNodes += g.Size()
	}
	if len(preps) == 0 {
		return fmt.Errorf("mechanism: the allocation round produced no grid (factors %+v)", factors)
	}
	for _, p := range preps {
		if _, err := b.client.Send(ctx, p.home, node.EncodePrepareAlloc(gridEpoch, p.grid)); err != nil {
			return fmt.Errorf("prepare grid on %s: %w", p.home, err)
		}
	}
	for _, d := range b.daemons {
		if _, err := b.client.Send(ctx, d.id, node.EncodeCommitGrid(gridEpoch)); err != nil {
			return fmt.Errorf("commit grid on %s: %w", d.id, err)
		}
	}
	ai.roundS = time.Since(t0).Seconds()
	ai.shapes = strings.Join(shapes, " ")
	for _, p := range preps {
		ai.hot = append(ai.hot, p.home)
	}
	for _, d := range b.daemons {
		dump, err := scrapeMetrics(d)
		if err != nil {
			return err
		}
		ai.migrated += dump.Counters["realloc.filters.migrated"]
	}
	return b.assertCommitted(ai)
}

// assertCommitted checks that every prepared home reports the committed
// epoch on its /healthz.
func (b *bench) assertCommitted(ai *allocInfo) error {
	for _, d := range b.daemons {
		for _, h := range ai.hot {
			if d.id != h {
				continue
			}
			ep, err := healthEpoch(d)
			if err != nil {
				return err
			}
			if ep != gridEpoch {
				return fmt.Errorf("mechanism: hot home %s reports epoch %d, want %d", d.id, ep, gridEpoch)
			}
		}
	}
	return nil
}
