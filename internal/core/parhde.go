package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bfs"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/pivot"
)

// Report describes what a layout run did: the per-phase timing breakdown
// and the algorithmic statistics the evaluation section charts.
type Report struct {
	// Breakdown is the per-phase wall-time split.
	Breakdown Breakdown
	// Sources lists the chosen pivot vertices in selection order.
	Sources []int32
	// KeptColumns counts subspace columns that survived
	// D-orthogonalization; DroppedColumns counts those rejected as
	// (near-)dependent.
	KeptColumns    int
	DroppedColumns int // columns rejected as (near-)dependent
	// Eigenvalues are the projected-problem eigenvalues backing the chosen
	// axes (ascending for ParHDE: approximations to the smallest
	// non-degenerate generalized eigenvalues µ of Lu = µDu).
	Eigenvalues []float64
	// BFSStats records per-traversal direction choices and scanned-edge
	// counts: one entry per pivot (k-centers, coupled) or per 64-source
	// multi-source batch (random-msbfs).
	BFSStats []bfs.Stats
	// PhaseAllocs holds per-phase heap-allocation deltas; nil unless
	// Options.TrackAllocs was set.
	PhaseAllocs []PhaseAlloc
	// Workers is the worker budget the run actually used (the snapshot
	// taken when Options.Workers ≤ 0).
	Workers int
	// Warm reports that the run took the warm-start refinement path
	// (Options.Prior accepted) instead of the full BFS+MGS pipeline.
	Warm bool
	// RefineSweeps counts the SGD sweeps of a warm run (0 for cold runs).
	RefineSweeps int
}

// BFSTotals aggregates BFSStats across every traversal of the run: the
// top-down vs bottom-up step split and total scanned edges that the
// server exports as Prometheus counters and the scaling sweep records
// per point.
func (r *Report) BFSTotals() bfs.Stats {
	var t bfs.Stats
	for i := range r.BFSStats {
		t.Add(r.BFSStats[i])
	}
	return t
}

// ParHDE computes a p-dimensional layout of the connected graph g with the
// parallel High-Dimensional Embedding algorithm (Algorithm 3): s
// traversals from farthest-first (or random) pivots, D-orthogonalization
// of the distance vectors, the fused triple product SᵀLS, a small
// eigensolve, and the subspace projection.
func ParHDE(g *graph.CSR, opt Options) (*Layout, *Report, error) {
	return ParHDECtx(context.Background(), g, opt)
}

// ParHDECtx is ParHDE with cooperative cancellation: ctx is checked at
// every phase boundary (BFS → DOrtho → TripleProd → eigensolve →
// projection) and, in coupled mode, between every pivot traversal of the
// BFS loop, so a cancelled run stops within one traversal rather than
// after a phase completes. On cancellation the returned error satisfies
// errors.Is(err, ctx.Err()). Phase transitions are reported to any
// observer installed with WithPhaseNotify.
func ParHDECtx(ctx context.Context, g *graph.CSR, opt Options) (*Layout, *Report, error) {
	opt = opt.withDefaults()
	if g.NumV < 2 {
		return nil, nil, fmt.Errorf("core: graph has %d vertices, need at least 2", g.NumV)
	}
	rep := &Report{}
	bd := &rep.Breakdown
	tr := newAllocTracker(opt.TrackAllocs)
	n := g.NumV
	s := opt.Subspace
	if s >= n {
		s = n - 1
	}
	ws := opt.Workspace
	if ws != nil {
		ws.Reshape(n, s, opt.Dims)
	}
	// The worker budget is captured exactly once per layout: every kernel
	// below fans out across bud's worker count and nothing re-reads
	// GOMAXPROCS mid-run.
	bud := parallel.FixedBudget(opt.Workers)
	if opt.Workers <= 0 {
		bud = parallel.SnapshotBudget()
	}
	rep.Workers = bud.Workers()

	// --- Warm start ------------------------------------------------------
	// A small-delta prior replaces the whole pipeline with a few SGD
	// refinement sweeps; a stale or incompatible prior falls through to
	// the cold path below.
	if warmEligible(g, opt) {
		var layout *Layout
		var err error
		timed(&bd.Total, func() {
			if err = ctx.Err(); err != nil {
				return
			}
			NotifyPhase(ctx, "warm_refine")
			tr.timed("warm_refine", &bd.WarmRefine, func() {
				layout, err = warmRefine(ctx, bud, g, opt, rep)
			})
		})
		rep.PhaseAllocs = tr.phases
		if err != nil {
			return nil, nil, err
		}
		rep.Warm = true
		return layout, rep, nil
	}

	if opt.Coupled {
		if g.Weighted() || opt.Pivots != pivot.KCenters || opt.Ortho != ortho.MGS {
			return nil, nil, fmt.Errorf("core: coupled mode requires the default configuration (unweighted graph, k-centers pivots, MGS)")
		}
	}

	var layout *Layout
	var err error
	timed(&bd.Total, func() {
		var deg []float64
		var sMat *linalg.Dense
		var dNorms []float64
		// degrees computes diag(D) once per run, through the workspace's
		// cached buffer when one is attached.
		degrees := func() []float64 {
			if ws != nil {
				ws.Deg = g.WeightedDegreesIntoBudget(bud, ws.Deg)
				return ws.Deg
			}
			return g.WeightedDegreesIntoBudget(bud, nil)
		}
		start := int32(splitmix(opt.Seed) % uint64(n))
		onTrav := func(f func()) { tr.timed("bfs_traversal", &bd.BFSTraversal, f) }
		onOther := func(f func()) { tr.timed("bfs_other", &bd.BFSOther, f) }

		if err = ctx.Err(); err != nil {
			return
		}
		NotifyPhase(ctx, "bfs")
		if opt.Coupled {
			// --- Coupled BFS + DOrtho: each distance vector is consumed by
			// incremental MGS as soon as its traversal finishes; the O(sn)
			// distance matrix B is never materialized.
			if !opt.PlainOrtho {
				deg = degrees()
			}
			var res ortho.Result
			res, err = coupledPhase(ctx, bud, g, s, start, deg, opt, rep, bd, tr)
			if err != nil {
				return
			}
			rep.KeptColumns = len(res.Kept)
			rep.DroppedColumns = res.Dropped
			if res.S.Cols < opt.Dims {
				err = fmt.Errorf("core: only %d independent distance vectors (need %d); increase the subspace dimension", res.S.Cols, opt.Dims)
				return
			}
			sMat = res.S
			dNorms = res.DNorms
		} else {
			// --- BFS phase -------------------------------------------------
			// Every entry of b is written before it is read, so a dirty
			// workspace-backed matrix behaves exactly like a fresh one.
			var b *linalg.Dense
			var psc *pivot.Scratch
			if ws != nil {
				b = ws.DistView(n, s)
				psc = ws.Pivot
			} else {
				b = linalg.NewDense(n, s)
			}
			var ps pivot.PhaseStats
			if g.Weighted() {
				// The Δ-stepping weighted path has its own internal
				// scheduling and stays on the live budget.
				ps = pivot.PhaseWeighted(g, b, start, opt.Delta, onTrav, onOther)
			} else {
				ps = pivot.PhaseBudget(bud, g, b, start, opt.Pivots, opt.BFS, psc, onTrav, onOther)
			}
			rep.Sources = ps.Sources
			rep.BFSStats = ps.Traversal
			if !opt.SkipConnectivityCheck {
				col := b.Col(0)
				for i := range col {
					if col[i] < 0 || math.IsInf(col[i], 1) {
						err = fmt.Errorf("core: graph is not connected (vertex %d unreachable from %d); extract the largest component first", i, ps.Sources[0])
						return
					}
				}
			}

			// --- DOrtho phase ----------------------------------------------
			if err = ctx.Err(); err != nil {
				return
			}
			NotifyPhase(ctx, "dortho")
			tr.timed("dortho", &bd.DOrtho, func() {
				var d []float64
				if !opt.PlainOrtho {
					deg = degrees()
					d = deg
				}
				var osc *ortho.Scratch
				if ws != nil {
					osc = ws.Ortho
				}
				res := ortho.DOrthogonalizeBudget(bud, b, d, opt.Ortho, osc)
				rep.KeptColumns = len(res.Kept)
				rep.DroppedColumns = res.Dropped
				layoutCols := opt.Dims
				if res.S.Cols < layoutCols {
					err = fmt.Errorf("core: only %d independent distance vectors (need %d); increase the subspace dimension", res.S.Cols, layoutCols)
					return
				}
				b = nil // release the raw distance matrix reference
				sMat = res.S
				dNorms = res.DNorms
			})
			if err != nil {
				return
			}
		}
		if deg == nil {
			deg = degrees()
		}

		// --- TripleProd phase --------------------------------------------
		if err = ctx.Err(); err != nil {
			return
		}
		NotifyPhase(ctx, "tripleprod")
		var p, z *linalg.Dense
		var pOut, zOut *linalg.Dense
		var srm, partials []float64
		var arena *linalg.PackArena
		if ws != nil {
			pOut = linalg.ViewDense(ws.P, n, sMat.Cols)
			zOut = linalg.ViewDense(ws.Z, sMat.Cols, sMat.Cols)
			srm, partials, arena = ws.SRM, ws.GemmPartials, ws.Pack
		}
		tr.timed("ls", &bd.LS, func() {
			p = linalg.LapMulDenseTiledPackedBudget(bud, g, deg, sMat, pOut, srm, arena)
		})
		tr.timed("gemm", &bd.Gemm, func() {
			z = linalg.AtBBudget(bud, sMat, p, zOut, partials)
		})

		// --- Eigensolve ---------------------------------------------------
		if err = ctx.Err(); err != nil {
			return
		}
		NotifyPhase(ctx, "eigensolve")
		var axes *linalg.Dense
		tr.timed("eigensolve", &bd.Eigensolve, func() {
			axes, rep.Eigenvalues, err = projectedAxes(z, dNorms, opt.Dims)
		})
		if err != nil {
			return
		}

		// --- Projection [x, y] = S·Y --------------------------------------
		if err = ctx.Err(); err != nil {
			return
		}
		NotifyPhase(ctx, "project")
		tr.timed("project", &bd.Project, func() {
			var cOut *linalg.Dense
			if ws != nil {
				cOut = linalg.ViewDense(ws.Coords, n, axes.Cols)
			}
			layout = &Layout{Coords: linalg.MulSmallBudget(bud, sMat, axes, cOut)}
		})
	})
	rep.PhaseAllocs = tr.phases
	if err != nil {
		return nil, nil, err
	}
	return layout, rep, nil
}

// projectedAxes solves the projected generalized eigenproblem
// (SᵀLS)y = µ(SᵀDS)y, where SᵀDS = diag(dNorms) because the columns are
// D-orthogonal (not D-orthonormal — Algorithm 3 normalizes in the
// Euclidean norm). Substituting y = T·z with T = diag(dNorms)^{-1/2}
// gives the standard symmetric problem (TZT)z = µz; the p axes are the
// back-substituted eigenvectors of the p smallest eigenvalues.
func projectedAxes(z *linalg.Dense, dNorms []float64, dims int) (*linalg.Dense, []float64, error) {
	k := z.Rows
	t := make([]float64, k)
	for i := range t {
		if dNorms[i] <= 0 {
			return nil, nil, fmt.Errorf("core: non-positive D-norm %g for column %d", dNorms[i], i)
		}
		t[i] = 1 / math.Sqrt(dNorms[i])
	}
	zs := linalg.NewDense(k, k)
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			zs.Set(i, j, z.At(i, j)*t[i]*t[j])
		}
	}
	vals, vecs, err := eigen.BottomK(zs, dims)
	if err != nil {
		return nil, nil, err
	}
	// Back-substitute y = T·z.
	for j := 0; j < vecs.Cols; j++ {
		col := vecs.Col(j)
		for i := range col {
			col[i] *= t[i]
		}
	}
	return vecs, vals, nil
}

// splitmix advances one splitmix64 step, used for the start-vertex draw.
func splitmix(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// coupledPhase runs the k-centers BFS loop with incremental MGS: the same
// traversals and source selection as the decoupled path (so pivots and
// layout are bitwise identical) with each distance vector orthogonalized
// immediately after its BFS and then discarded. ctx is checked before
// every pivot traversal, so cancelling a long run (s up to 50 traversals
// over a million-vertex graph) takes effect within one BFS — milliseconds
// — rather than after the whole phase.
func coupledPhase(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, deg []float64, opt Options, rep *Report, bd *Breakdown, tr *allocTracker) (ortho.Result, error) {
	n := g.NumV
	var (
		runner     *bfs.Runner
		dist, dmin []int32
		col        []float64
		inc        *ortho.Incremental
		amIdx      []int
		amVals     []int32
	)
	if ws := opt.Workspace; ws != nil {
		runner = bfs.NewRunnerBudget(g, opt.BFS, ws.Pivot.BFS, bud)
		dist, dmin = ws.Pivot.Dist, ws.Pivot.DMin
		col = ws.Col
		inc = ortho.NewIncrementalBudget(bud, n, s, deg, ws.Ortho)
		ws.Pivot.Ensure(n)
		amIdx, amVals = ws.Pivot.ArgmaxArenas()
	} else {
		runner = bfs.NewRunnerBudget(g, opt.BFS, nil, bud)
		dist = make([]int32, n)
		dmin = make([]int32, n)
		col = make([]float64, n)
		inc = ortho.NewIncrementalBudget(bud, n, s, deg, nil)
	}
	parallelFillInt32(bud, dmin, int32(1)<<30)

	src := start
	rep.Sources = make([]int32, 0, s)
	rep.BFSStats = make([]bfs.Stats, 0, s)
	// Hoist the per-pivot closures out of the loop so the steady-state
	// loop body allocates nothing (a closure literal in the loop would be
	// constructed s times per run).
	var ts bfs.Stats
	traverse := func() { ts = runner.Distances(src, dist) }
	other := func() {
		// Fused widen + min-update + argmax: one pass over the distance
		// vector instead of three.
		src = int32(linalg.WidenMinArgmaxBudget(bud, col, dmin, dist, amIdx, amVals))
	}
	addCol := func() { inc.Add(col) }
	for i := 0; i < s; i++ {
		if err := ctx.Err(); err != nil {
			return ortho.Result{}, err
		}
		rep.Sources = append(rep.Sources, src)
		tr.timed("bfs_traversal", &bd.BFSTraversal, traverse)
		rep.BFSStats = append(rep.BFSStats, ts)
		if i == 0 && !opt.SkipConnectivityCheck {
			for v := range dist {
				if dist[v] == bfs.Unreached {
					return ortho.Result{}, fmt.Errorf("core: graph is not connected (vertex %d unreachable from %d); extract the largest component first", v, src)
				}
			}
		}
		tr.timed("bfs_other", &bd.BFSOther, other)
		tr.timed("dortho", &bd.DOrtho, addCol)
	}
	return inc.Result(), nil
}

// parallelFillInt32 sets every element of x to v.
func parallelFillInt32(bud parallel.Budget, x []int32, v int32) {
	if bud.Serial(len(x)) {
		for i := range x {
			x[i] = v
		}
		return
	}
	bud.ForBlock(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = v
		}
	})
}
