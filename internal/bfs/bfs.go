package bfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Unreached marks vertices not reached by a traversal.
const Unreached = int32(-1)

// Default direction-switch parameters from the GAP BFS (Beamer's α and β).
const (
	DefaultAlpha = 15
	DefaultBeta  = 18
)

// Stats reports what a traversal did — the raw material of the paper's
// BFS-phase breakdowns (Fig. 5 middle) and the γ work-reduction factor of
// Table 1.
type Stats struct {
	Levels        int   // eccentricity of the source + 1 iterations
	TopDownSteps  int   // levels run in top-down mode
	BottomUpSteps int   // levels run in bottom-up mode
	ScannedEdges  int64 // adjacency entries actually examined
}

// Add accumulates o into s — the aggregation the per-layout observability
// rollups (core.Report.BFSTotals, the server's direction counters) run
// over every traversal of a phase.
func (s *Stats) Add(o Stats) {
	s.Levels += o.Levels
	s.TopDownSteps += o.TopDownSteps
	s.BottomUpSteps += o.BottomUpSteps
	s.ScannedEdges += o.ScannedEdges
}

// Options configures a traversal.
type Options struct {
	Alpha int64 // top-down → bottom-up switch threshold (0 = DefaultAlpha)
	Beta  int64 // bottom-up → top-down switch threshold (0 = DefaultBeta)
}

// parallelLevelWork is the level work below which a level runs on one
// goroutine even when the budget has more workers. A level's work is the
// vertices it visits plus its frontier's edges: the frontier's vertices
// for a top-down step, all n for a bottom-up step (it tests every vertex
// against the frontier bitmap). Below the constant a fan-out (goroutine
// spawns, a WaitGroup, closures, CAS claims) costs more than it saves: a
// road-network level holds a few hundred vertices, and thousands of such
// levels made the 2-worker traversal slower than the 1-worker one.
// Calibrated on a 2-core Xeon (EXPERIMENTS.md): 2^12–2^16 all end the
// road slowdown; 2^14 is the middle of that plateau.
const parallelLevelWork = 1 << 14

// Runner holds the reusable state for repeated traversals over one graph,
// so the s searches of the BFS phase don't reallocate frontiers — the
// paper stresses the O(sn) distance storage is the dominant extra memory.
type Runner struct {
	g       *graph.CSR
	opt     Options
	sc      *Scratch
	bud     parallel.Budget
	workers int
	// serialLevels and parallelLevels count the levels run on one
	// goroutine and fanned out across workers, over the Runner's life.
	serialLevels, parallelLevels int
}

// NewRunnerBudget creates a Runner for g backed by sc, regrowing it if it
// is too small for g (nil allocates private scratch). The caller may hand
// the same Scratch to successive Runners over different graphs — the job
// engine reuses one per worker — but must not share it between
// concurrently live Runners. The budget is pinned for the Runner's
// lifetime: the per-worker queue arenas and every traversal step use the
// same worker count, so a GOMAXPROCS change mid-run can never
// desynchronize the partition from the scratch (live budgets are
// snapshotted once here for exactly that reason).
func NewRunnerBudget(g *graph.CSR, opt Options, sc *Scratch, bud parallel.Budget) *Runner {
	if opt.Alpha <= 0 {
		opt.Alpha = DefaultAlpha
	}
	if opt.Beta <= 0 {
		opt.Beta = DefaultBeta
	}
	if !bud.Fixed() {
		bud = parallel.SnapshotBudget()
	}
	w := bud.Workers()
	if sc == nil {
		sc = NewScratch(g.NumV, w)
	} else {
		sc.ensure(g.NumV, w)
	}
	return &Runner{g: g, opt: opt, sc: sc, bud: bud, workers: w}
}

// Distances runs a BFS from src, writing hop counts into dist (length
// NumV, filled with Unreached for unreachable vertices) and returning
// traversal statistics. dist may be a column of the HDE distance matrix B;
// the write pattern is atomic-free for distances (a CAS claims each vertex
// once, then the distance store is unconditional), matching §3.1.
//
// Each level decides afresh whether to fan out, by comparing its work
// with parallelLevelWork; the queue↔bitmap conversion before a level
// follows the same rule (the rebuild from the bitmap strides all n, like
// a bottom-up step). The choice cannot change a result: a level computes
// the same next-frontier vertex set whichever way it runs — only the
// order of the next queue differs — so dist and Stats are identical at
// every worker budget.
func (r *Runner) Distances(src int32, dist []int32) Stats {
	g := r.g
	n := g.NumV
	if r.workers == 1 {
		for i := range dist {
			dist[i] = Unreached
		}
	} else {
		r.bud.For(n, func(i int) { dist[i] = Unreached })
	}
	dist[src] = 0

	var st Stats
	level := int32(0)
	// frontier state: either queue (top-down) or bitmap (bottom-up)
	r.sc.queue = append(r.sc.queue[:0], src)
	bottomUp := false
	frontierSize := int64(1)
	frontierEdges := int64(g.Degree(src))
	unexploredEdges := int64(len(g.Adj)) - frontierEdges

	for frontierSize > 0 {
		st.Levels++
		frontierPar := r.fanOut(frontierSize + frontierEdges)
		stridePar := r.fanOut(int64(n) + frontierEdges)
		if !bottomUp && frontierEdges > unexploredEdges/r.opt.Alpha {
			// Switch: materialize the frontier bitmap from the queue.
			r.sc.front.Reset()
			q := r.sc.queue
			if frontierPar {
				r.bud.For(len(q), func(i int) { r.sc.front.Set(q[i]) })
			} else {
				for _, v := range q {
					r.sc.front.Set(v)
				}
			}
			bottomUp = true
		} else if bottomUp && frontierSize < int64(n)/r.opt.Beta {
			// Switch back: rebuild the queue from the bitmap.
			r.rebuildQueue(stridePar)
			bottomUp = false
		}
		var nf, ne, scanned int64
		par := frontierPar
		if bottomUp {
			par = stridePar
			nf, ne, scanned = r.bottomUpStep(level, dist, par)
			st.BottomUpSteps++
		} else {
			nf, ne, scanned = r.topDownStep(level, dist, par)
			st.TopDownSteps++
		}
		if par {
			r.parallelLevels++
		} else {
			r.serialLevels++
		}
		st.ScannedEdges += scanned
		unexploredEdges -= ne
		frontierSize, frontierEdges = nf, ne
		level++
	}
	return st
}

// fanOut reports whether a level of the given work runs across the
// budget's workers rather than on the calling goroutine.
func (r *Runner) fanOut(work int64) bool {
	return r.workers > 1 && work >= parallelLevelWork
}

// topDownStep expands the queue frontier, serially or (par) across the
// budget's workers, which claim unvisited neighbors with a CAS on their
// distance slot. Returns the next frontier size, its total degree, and
// the number of adjacency entries scanned.
func (r *Runner) topDownStep(level int32, dist []int32, par bool) (nf, ne, scanned int64) {
	g := r.g
	q := r.sc.queue
	if !par {
		// Serial path: expand inline, no goroutine spawn (and hence no
		// per-level allocation on the steady-state hot path).
		local := r.sc.nextQ[0][:0]
		var localNE, localScan int64
		for _, u := range q {
			adj := g.Adj[g.Offsets[u]:g.Offsets[u+1]]
			localScan += int64(len(adj))
			for _, v := range adj {
				if dist[v] == Unreached {
					dist[v] = level + 1
					local = append(local, v)
					localNE += g.Offsets[v+1] - g.Offsets[v]
				}
			}
		}
		r.sc.nextQ[0] = local
		r.sc.queue = append(r.sc.queue[:0], local...)
		return int64(len(local)), localNE, localScan
	}
	w := r.workers
	var totNF, totNE, totScan int64
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			local := r.sc.nextQ[wk][:0]
			var localNE, localScan int64
			lo := wk * len(q) / w
			hi := (wk + 1) * len(q) / w
			for _, u := range q[lo:hi] {
				adj := g.Adj[g.Offsets[u]:g.Offsets[u+1]]
				localScan += int64(len(adj))
				for _, v := range adj {
					if atomic.LoadInt32(&dist[v]) == Unreached &&
						atomic.CompareAndSwapInt32(&dist[v], Unreached, level+1) {
						local = append(local, v)
						localNE += g.Offsets[v+1] - g.Offsets[v]
					}
				}
			}
			r.sc.nextQ[wk] = local
			atomic.AddInt64(&totNF, int64(len(local)))
			atomic.AddInt64(&totNE, localNE)
			atomic.AddInt64(&totScan, localScan)
		}(wk)
	}
	wg.Wait()
	// Concatenate per-worker buffers into the next queue.
	r.sc.queue = r.sc.queue[:0]
	for wk := 0; wk < w; wk++ {
		r.sc.queue = append(r.sc.queue, r.sc.nextQ[wk]...)
	}
	return totNF, totNE, totScan
}

// bottomUpStep has every unvisited vertex scan its own adjacency for a
// parent on the current level, stopping at the first hit — the step that
// slashes edge traffic on low-diameter skewed graphs. With par, workers
// own disjoint vertex blocks, so the claims need no CAS.
func (r *Runner) bottomUpStep(level int32, dist []int32, par bool) (nf, ne, scanned int64) {
	r.sc.next.Reset()
	if !par {
		nf, ne, scanned = r.bottomUpRange(level, dist, 0, r.g.NumV)
		r.sc.front.Swap(r.sc.next)
		return nf, ne, scanned
	}
	// The shared totals escape into the workers' closure, so they live
	// on this branch only: the serial path above allocates nothing.
	var totNF, totNE, totScan atomic.Int64
	r.bud.ForBlock(r.g.NumV, func(lo, hi int) {
		lnf, lne, lscan := r.bottomUpRange(level, dist, lo, hi)
		totNF.Add(lnf)
		totNE.Add(lne)
		totScan.Add(lscan)
	})
	r.sc.front.Swap(r.sc.next)
	return totNF.Load(), totNE.Load(), totScan.Load()
}

// bottomUpRange is one contiguous chunk of the bottom-up step: every
// unvisited vertex in [lo, hi) scans its adjacency for a parent on the
// frontier bitmap.
func (r *Runner) bottomUpRange(level int32, dist []int32, lo, hi int) (nf, ne, scanned int64) {
	g := r.g
	for v := lo; v < hi; v++ {
		if dist[v] != Unreached {
			continue
		}
		adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
		for k, u := range adj {
			// Membership in the frontier bitmap (fully built before this
			// level's barrier) is the parent test; consulting dist here
			// would race with other workers claiming their own vertices.
			if r.sc.front.Get(u) {
				dist[v] = level + 1
				r.sc.next.Set(int32(v))
				nf++
				ne += g.Offsets[v+1] - g.Offsets[v]
				scanned += int64(k + 1)
				break
			}
			if k == len(adj)-1 {
				scanned += int64(len(adj))
			}
		}
	}
	return nf, ne, scanned
}

// rebuildQueue converts the bitmap frontier back into queue form,
// serially or (par) with one vertex range per worker.
func (r *Runner) rebuildQueue(par bool) {
	g := r.g
	if !par {
		q := r.sc.queue[:0]
		for v := 0; v < g.NumV; v++ {
			if r.sc.front.Get(int32(v)) {
				q = append(q, int32(v))
			}
		}
		r.sc.queue = q
		return
	}
	w := r.workers
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			local := r.sc.nextQ[wk][:0]
			lo := wk * g.NumV / w
			hi := (wk + 1) * g.NumV / w
			for v := lo; v < hi; v++ {
				if r.sc.front.Get(int32(v)) {
					local = append(local, int32(v))
				}
			}
			r.sc.nextQ[wk] = local
		}(wk)
	}
	wg.Wait()
	r.sc.queue = r.sc.queue[:0]
	for wk := 0; wk < w; wk++ {
		r.sc.queue = append(r.sc.queue, r.sc.nextQ[wk]...)
	}
}

// Serial runs a textbook sequential BFS from src into dist, returning the
// number of levels. It is both the correctness oracle for the parallel
// traversal and the traversal used by the prior-work baseline, which "does
// not use parallel BFS" (§4.2).
func Serial(g *graph.CSR, src int32, dist []int32) int {
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	queue := make([]int32, 1, 1024)
	queue[0] = src
	levels := 0
	for len(queue) > 0 {
		levels++
		var next []int32
		for _, u := range queue {
			d := dist[u]
			for _, v := range g.Neighbors(u) {
				if dist[v] == Unreached {
					dist[v] = d + 1
					next = append(next, v)
				}
			}
		}
		queue = next
	}
	return levels
}
