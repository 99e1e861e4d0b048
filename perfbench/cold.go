package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/quality"
	"repro/internal/workspace"
)

// Stress is sampled from a fixed set of BFS sources so it repeats exactly
// for one graph and layout. A layout's stress and cost move by up to ±20%
// with the layout seed (it picks the first pivot), so the cold layouts
// cycle through layoutSeeds seeds, seed … seed+layoutSeeds-1, and reports
// stress and the exact counts as means over them.
const (
	stressSources = 16
	stressSeed    = 7
	layoutSeeds   = 5
)

// coldBench lays out one graph over and over through core.ParHDE,
// alternating Workers=1 and Workers=nproc on one warmed workspace, so
// host drift hits both budgets alike.
type coldBench struct {
	g       *graph.CSR
	s       int
	seed    uint64
	budgets [2]int // {1, nproc}
	ws      *workspace.Workspace
	sums    map[uint64]string // layout seed → SHA-256 of its coordinates
	firsts  []*core.Layout    // a copy of the first layout of each seed, for stress

	i      int                // layouts run so far
	counts map[string]float64 // exact counts summed over the first layout of each seed
	seen   map[uint64]bool
}

// newColdBench warms a workspace with one layout at each budget and
// records the first layout seed's checksum. It is part of set-up.
func newColdBench(g *graph.CSR, s int, seed uint64) (*coldBench, error) {
	cb := &coldBench{g: g, s: s, seed: seed, budgets: [2]int{1, runtime.GOMAXPROCS(0)},
		ws: workspace.New(), sums: map[uint64]string{}, counts: map[string]float64{}, seen: map[uint64]bool{}}
	for _, w := range cb.budgets {
		l, _, err := cb.layout(w, seed)
		if err == nil {
			err = cb.check(l, w, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up layout at %d workers: %w", w, err)
		}
	}
	return cb, nil
}

func (cb *coldBench) layout(workers int, layoutSeed uint64) (*core.Layout, *core.Report, error) {
	return core.ParHDE(cb.g, core.Options{Subspace: cb.s, Seed: layoutSeed, Workers: workers, Workspace: cb.ws})
}

// check requires finite coordinates and, once a layout seed has been seen,
// bitwise the same coordinates at every budget.
func (cb *coldBench) check(l *core.Layout, workers int, layoutSeed uint64) error {
	sum, err := checkLayout(l, cb.g.NumV)
	if err != nil {
		return err
	}
	if want, ok := cb.sums[layoutSeed]; !ok {
		cb.sums[layoutSeed] = sum
	} else if sum != want {
		return fmt.Errorf("layout seed %d at %d workers has checksum %s, want %s", layoutSeed, workers, sum, want)
	}
	return nil
}

// checkLayout verifies every coordinate is finite and returns the SHA-256
// of the coordinate bits in column order.
func checkLayout(l *core.Layout, n int) (string, error) {
	if l == nil || l.NumVertices() != n {
		return "", fmt.Errorf("layout has wrong shape")
	}
	h := sha256.New()
	var buf [8]byte
	for j := 0; j < l.Dims(); j++ {
		for i, x := range l.Coords.Col(j) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return "", fmt.Errorf("coordinate (%d,%d) is %v", i, j, x)
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// phaseTimes are the core.Breakdown phases the benchmark reports, by the
// layer that owns them.
var phaseTimes = []struct {
	name string
	get  func(core.Breakdown) time.Duration
}{
	{"bfs.traversal", func(b core.Breakdown) time.Duration { return b.BFSTraversal }},
	{"pivot.other", func(b core.Breakdown) time.Duration { return b.BFSOther }},
	{"ortho.dortho", func(b core.Breakdown) time.Duration { return b.DOrtho }},
	{"linalg.ls", func(b core.Breakdown) time.Duration { return b.LS }},
	{"linalg.gemm", func(b core.Breakdown) time.Duration { return b.Gemm }},
	{"eigen.eigensolve", func(b core.Breakdown) time.Duration { return b.Eigensolve }},
	{"linalg.project", func(b core.Breakdown) time.Duration { return b.Project }},
	{"core.layout", func(b core.Breakdown) time.Duration { return b.Total }},
}

// step runs one timed layout. Layouts alternate Workers=1 and
// Workers=nproc, each pair with the next layout seed. The first layout of
// each seed also yields its exact counts (untimed) and is kept for stress.
// Traced runs alternate traced and untraced pairs so the difference
// between them is the tracing overhead.
func (cb *coldBench) step(r *run) {
	i := cb.i
	cb.i++
	w := cb.budgets[i%2]
	ls := cb.seed + uint64(i/2%layoutSeeds)
	tag := budgetTag(w, cb.budgets[1])
	traced := r.traced && (i/2)%2 == 0
	r.tr.on = traced
	defer func() { r.tr.on = r.traced }()
	sp := r.tr.begin("core.ParHDE"+tag, 0, i)
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	t := time.Now()
	l, rp, err := cb.layout(w, ls)
	el := time.Since(t).Seconds()
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.add("core.allocs_per_layout", float64(after.Mallocs-before.Mallocs))
		r.add("core.bytes_per_layout", float64(after.TotalAlloc-before.TotalAlloc))
	}
	r.tr.end(sp)
	if err == nil {
		csp := r.tr.begin("check", 0, i)
		err = cb.check(l, w, ls)
		r.tr.end(csp)
	}
	if !r.op("cold layout", err) {
		return
	}
	r.add("layout"+tag+"_s", el)
	if traced {
		r.add("trace.layout_traced"+tag+"_s", el)
	} else {
		r.add("trace.layout_untraced"+tag+"_s", el)
	}
	for _, p := range phaseTimes {
		r.add(p.name+tag+"_s", p.get(rp.Breakdown).Seconds())
	}
	if cb.seen[ls] {
		return
	}
	// Layouts are identical at every budget (checked), so the first one
	// of a seed stands for it.
	cb.seen[ls] = true
	bt := rp.BFSTotals()
	cb.counts["bfs.levels"] += float64(bt.Levels)
	cb.counts["bfs.topdown_steps"] += float64(bt.TopDownSteps)
	cb.counts["bfs.bottomup_steps"] += float64(bt.BottomUpSteps)
	cb.counts["bfs.scanned_edges"] += float64(bt.ScannedEdges)
	cb.counts["bfs.traversals"] += float64(len(rp.BFSStats))
	cb.counts["ortho.kept_cols"] += float64(rp.KeptColumns)
	cb.firsts = append(cb.firsts, l.Clone())
}

// cycled reports whether every layout seed has run at both budgets.
func (cb *coldBench) cycled() bool { return cb.i >= 2*layoutSeeds }

// finish sets the exact counts (means over the layout seeds).
func (cb *coldBench) finish(r *run) {
	if len(cb.seen) == layoutSeeds {
		for k, v := range cb.counts {
			r.set(k, v/layoutSeeds)
		}
	}
	r.info["layout_sha256"] = cb.sums
	r.info["layout_workers"] = cb.budgets
}

// stress sets the mean sampled stress of the first layout of every seed.
// It runs after the measured phases: its scratch would otherwise show in
// peak_rss_mb.
func (cb *coldBench) stress(r *run) {
	if len(cb.firsts) != layoutSeeds {
		return
	}
	var sum float64
	for _, l := range cb.firsts {
		sum += quality.SampledStress(cb.g, l, stressSources, stressSeed)
	}
	r.set("stress", sum/layoutSeeds)
}

// budgetTag names a worker budget in metric names: "" for the full budget
// (nproc), "_1w" for one worker.
func budgetTag(w, nproc int) string {
	if w == 1 && nproc != 1 {
		return "_1w"
	}
	return ""
}
