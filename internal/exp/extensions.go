package exp

import (
	"io"
	"runtime"
	"time"

	"repro/internal/bfs"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/forcedirected"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/order"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/stress"
)

// MultilevelExperiment compares single-level ParHDE with the multilevel
// variant the paper names as future work (§5): same quality regime, with
// the subspace machinery confined to a coarse graph.
func MultilevelExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	fprintf(w, "Multilevel ParHDE (plate mesh, n=%d m=%d)\n", g.NumV, g.NumEdges())

	var singleLay, multiLay *core.Layout
	tSingle := minTime(cfg.Reps, func() {
		var err error
		singleLay, _, err = core.ParHDE(g, core.Options{Subspace: 50, Seed: 1, SkipConnectivityCheck: true})
		if err != nil {
			panic(err)
		}
	})
	var mrep *core.MultilevelReport
	tMulti := minTime(cfg.Reps, func() {
		var err error
		multiLay, mrep, err = core.MultilevelParHDE(g, core.MultilevelOptions{
			Base:    core.Options{Subspace: 50, Seed: 1},
			Coarsen: coarsen.Options{MinVertices: 500, Seed: 1},
		})
		if err != nil {
			panic(err)
		}
	})
	qs := core.Evaluate(g, singleLay)
	qm := core.Evaluate(g, multiLay)
	fprintf(w, "%-22s %10s %12s %14s\n", "variant", "time (s)", "Hall ratio", "levels")
	fprintf(w, "%-22s %10.4f %12.5f %14s\n", "single-level", seconds(tSingle), qs.HallRatio, "-")
	fprintf(w, "%-22s %10.4f %12.5f %14v\n", "multilevel", seconds(tMulti), qm.HallRatio, mrep.Levels)
	return nil
}

// StressExperiment reproduces the §4.5.4 observation that an HDE layout is
// a good initialization for stress majorization: same iteration budget,
// compare stress reached from a ParHDE seed versus a random seed.
func StressExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	side := scaled(40, cfg.Factor)
	g := plateSide(side)
	fprintf(w, "Stress-majorization seeding (plate mesh, n=%d m=%d, full stress, 8 iterations)\n", g.NumV, g.NumEdges())

	opt := stress.Options{MaxIters: 8, Tol: 0}
	hdeLay, _, err := core.ParHDE(g, core.Options{Subspace: 30, Seed: 1})
	if err != nil {
		return err
	}
	start := time.Now()
	resHDE, err := stress.Full(g, hdeLay, opt)
	if err != nil {
		return err
	}
	tHDE := time.Since(start)

	rndLay := core.RandomLayout(g.NumV, 2, 7)
	start = time.Now()
	resRnd, err := stress.Full(g, rndLay, opt)
	if err != nil {
		return err
	}
	tRnd := time.Since(start)

	fprintf(w, "%-14s %14s %14s %10s\n", "seed", "initial stress", "final stress", "time (s)")
	fprintf(w, "%-14s %14.5f %14.5f %10.4f\n", "ParHDE", resHDE.History[0], resHDE.Stress, seconds(tHDE))
	fprintf(w, "%-14s %14.5f %14.5f %10.4f\n", "random", resRnd.History[0], resRnd.Stress, seconds(tRnd))
	fprintf(w, "HDE seed starts %.1fx lower and ends %.1fx lower after the same budget\n",
		resRnd.History[0]/resHDE.History[0], resRnd.Stress/resHDE.Stress)
	return nil
}

// ForceDirectedExperiment reproduces the §4.2 related-work comparison:
// ParHDE versus a force-directed (Fruchterman-Reingold) layout of the same
// graph — the paper estimates one to two orders of magnitude advantage.
func ForceDirectedExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	fprintf(w, "ParHDE vs force-directed baseline (plate mesh, n=%d m=%d)\n", g.NumV, g.NumEdges())
	var hdeLay, frLay *core.Layout
	tHDE := minTime(cfg.Reps, func() {
		var err error
		hdeLay, _, err = core.ParHDE(g, core.Options{Subspace: 50, Seed: 1, SkipConnectivityCheck: true})
		if err != nil {
			panic(err)
		}
	})
	tFR := minTime(1, func() {
		frLay = forcedirected.Layout(g, forcedirected.Options{Iterations: 100, Seed: 2})
	})
	qh := core.Evaluate(g, hdeLay)
	qf := core.Evaluate(g, frLay)
	fprintf(w, "%-20s %10s %12s\n", "method", "time (s)", "Hall ratio")
	fprintf(w, "%-20s %10.4f %12.5f\n", "ParHDE (s=50)", seconds(tHDE), qh.HallRatio)
	fprintf(w, "%-20s %10.4f %12.5f\n", "FR (100 iters)", seconds(tFR), qf.HallRatio)
	fprintf(w, "speedup: %.0fx (paper estimates 10-100x vs force-directed systems)\n", ratio(tFR, tHDE))
	return nil
}

// SubspaceExperiment extends §4.5.3 to a block eigensolver: iterations for
// subspace (orthogonal) iteration to converge from an HDE seed versus a
// cold start.
func SubspaceExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	fprintf(w, "Eigensolver seeding (plate mesh, n=%d m=%d, subspace iteration, tol 1e-6)\n", g.NumV, g.NumEdges())

	start := time.Now()
	hdeLay, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1, SkipConnectivityCheck: true})
	if err != nil {
		return err
	}
	tSeed := time.Since(start)

	const tol = 1e-6
	start = time.Now()
	warm := eigen.SubspaceIterate(g, 2, eigen.SubspaceOptions{Seed: 3, MaxIters: 100000, Tol: tol, Init: hdeLay.Coords})
	tWarm := time.Since(start)
	start = time.Now()
	cold := eigen.SubspaceIterate(g, 2, eigen.SubspaceOptions{Seed: 3, MaxIters: 100000, Tol: tol})
	tCold := time.Since(start)
	start = time.Now()
	lobWarm := eigen.LOBPCG(g, 2, eigen.LOBPCGOptions{Seed: 3, MaxIters: 100000, Tol: tol, Init: hdeLay.Coords})
	tLobWarm := time.Since(start)
	start = time.Now()
	lobCold := eigen.LOBPCG(g, 2, eigen.LOBPCGOptions{Seed: 3, MaxIters: 100000, Tol: tol})
	tLobCold := time.Since(start)

	fprintf(w, "%-28s %12s %12s %12s\n", "solver / start", "iterations", "residual", "time (s)")
	fprintf(w, "%-28s %12d %12.2e %12.4f\n", "subspace, ParHDE seed", warm.Iterations, warm.Residual, seconds(tWarm+tSeed))
	fprintf(w, "%-28s %12d %12.2e %12.4f\n", "subspace, cold", cold.Iterations, cold.Residual, seconds(tCold))
	fprintf(w, "%-28s %12d %12.2e %12.4f\n", "LOBPCG, ParHDE seed", lobWarm.Iterations, lobWarm.Residual, seconds(tLobWarm+tSeed))
	fprintf(w, "%-28s %12d %12.2e %12.4f\n", "LOBPCG, cold", lobCold.Iterations, lobCold.Residual, seconds(tLobCold))
	fprintf(w, "subspace seed reduction: %.1fx; LOBPCG vs subspace (cold): %.1fx fewer iterations\n",
		float64(cold.Iterations)/float64(warm.Iterations),
		float64(cold.Iterations)/float64(lobCold.Iterations))
	return nil
}

// PartitionExperiment quantifies §4.5.4: geometric partitioning from HDE
// coordinates, plus KL/FM boundary refinement, versus a random-coordinates
// baseline.
func PartitionExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := SmallCollection(cfg.Factor)[2].G // kkt_power analogue
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 30, Seed: 3, SkipConnectivityCheck: true})
	if err != nil {
		return err
	}
	fprintf(w, "Geometric partitioning (power-grid analogue, n=%d m=%d, 8 parts)\n", g.NumV, g.NumEdges())
	fprintf(w, "%-26s %10s %10s %10s\n", "configuration", "cut", "cut%", "imbalance")

	show := func(name string, part []int32) {
		st := partition.EvaluateCut(g, part)
		fprintf(w, "%-26s %10d %9.1f%% %10.3f\n", name, st.CutEdges, 100*st.CutRatio, st.Imbalance)
	}
	hdePart, err := partition.CoordinateBisection(lay, 3)
	if err != nil {
		return err
	}
	show("HDE coords", append([]int32(nil), hdePart...))
	refined := append([]int32(nil), hdePart...)
	moved := partition.Refine(g, refined, partition.RefineOptions{})
	show("HDE coords + KL refine", refined)
	fprintf(w, "  (refinement moved %d vertices)\n", moved)
	rndPart, err := partition.CoordinateBisection(core.RandomLayout(g.NumV, 2, 5), 3)
	if err != nil {
		return err
	}
	show("random coords", rndPart)

	// Multilevel KL with and without the HDE coarse seed: §4.5.4's claim
	// that coordinates reduce KL refinement work, measured in moves.
	mlRand, stRand, err := partition.MultilevelPartition(g, partition.MultilevelOptions{Levels: 3, Seed: 5})
	if err != nil {
		return err
	}
	show("multilevel KL (random)", mlRand)
	fprintf(w, "  (KL moves across levels: %d)\n", stRand.TotalMoved)
	mlHDE, stHDE, err := partition.MultilevelPartition(g, partition.MultilevelOptions{Levels: 3, UseHDESeed: true, Seed: 5})
	if err != nil {
		return err
	}
	show("multilevel KL (HDE seed)", mlHDE)
	fprintf(w, "  (KL moves across levels: %d — %.1fx less refinement work)\n",
		stHDE.TotalMoved, float64(stRand.TotalMoved)/float64(maxIntOne(stHDE.TotalMoved)))
	return nil
}

func maxIntOne(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// plateSide builds the plate mesh at an explicit side length (StressExperiment
// needs a small one: full stress is quadratic).
func plateSide(side int) *graph.CSR {
	return gen.PlateWithHoles(side, side)
}

// AlphaBetaExperiment sweeps the direction-optimizing BFS switch
// thresholds (Beamer's α and β, defaulting to the GAP values 15 and 18)
// on a skewed low-diameter graph — the ablation behind §3.1's choice of
// the GAP heuristic.
func AlphaBetaExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := LargeCollection(cfg.Factor)[1].G // kron analogue
	dist := make([]int32, g.NumV)
	fprintf(w, "Direction-optimizing switch sweep (kron analogue, n=%d m=%d)\n", g.NumV, g.NumEdges())
	fprintf(w, "%8s %8s %12s %16s %10s\n", "alpha", "beta", "time (s)", "edges scanned", "bottom-up")
	configs := []struct{ a, b int64 }{
		{1, 18}, {15, 18}, {64, 18}, {15, 2}, {15, 64}, {1 << 30, 18 /* effectively top-down */},
	}
	for _, c := range configs {
		runner := bfs.NewRunnerBudget(g, bfs.Options{Alpha: c.a, Beta: c.b}, nil, parallel.Live())
		var st bfs.Stats
		t := minTime(cfg.Reps, func() { st = runner.Distances(0, dist) })
		fprintf(w, "%8d %8d %12.4f %16d %10d\n", c.a, c.b, seconds(t), st.ScannedEdges, st.BottomUpSteps)
	}
	return nil
}

// LDDExperiment demonstrates the §3/§5 future-work ingredient: a low
// diameter decomposition bounds per-cluster BFS depth at the cost of a
// controlled fraction of cut edges.
func LDDExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	side := scaled(220, cfg.Factor)
	g := gen.Road(side, side, 105)
	fprintf(w, "Low-diameter decomposition (road analogue, n=%d m=%d, pseudo-diameter %d)\n",
		g.NumV, g.NumEdges(), graph.PseudoDiameter(g, 0))
	fprintf(w, "%8s %10s %12s %14s\n", "beta", "clusters", "cut frac", "max radius")
	for _, beta := range []float64{0.02, 0.05, 0.1, 0.2} {
		label, clusters := graph.LowDiameterDecomposition(g, beta, 11)
		fprintf(w, "%8g %10d %12.3f %14d\n",
			beta, clusters, graph.CutFraction(g, label), graph.ClusterRadius(g, label, clusters))
	}
	return nil
}

// QualityExperiment scores every layout algorithm on the plate mesh with
// the full metric battery — the quantitative stand-in for the drawing
// comparisons the paper handles visually (Figures 1 and 7, which cite the
// experimental studies of Brandes-Pich and Hachul-Jünger).
func QualityExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plateSide(scaled(60, cfg.Factor))
	fprintf(w, "Layout quality battery (plate mesh, n=%d m=%d)\n", g.NumV, g.NumEdges())
	fprintf(w, "%-18s %12s %10s %11s %10s\n", "method", "Hall ratio", "dist-corr", "nbhd-pres", "crossings")

	type entry struct {
		name string
		f    func() (*core.Layout, error)
	}
	entries := []entry{
		{"parhde", func() (*core.Layout, error) {
			l, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1})
			return l, err
		}},
		{"phde", func() (*core.Layout, error) {
			l, _, err := core.PHDE(g, core.Options{Subspace: 50, Seed: 1})
			return l, err
		}},
		{"pivotmds", func() (*core.Layout, error) {
			l, _, err := core.PivotMDS(g, core.Options{Subspace: 50, Seed: 1})
			return l, err
		}},
		{"multilevel", func() (*core.Layout, error) {
			l, _, err := core.MultilevelParHDE(g, core.MultilevelOptions{Base: core.Options{Subspace: 30, Seed: 1}})
			return l, err
		}},
		{"forcedirected", func() (*core.Layout, error) {
			return forcedirected.Layout(g, forcedirected.Options{Iterations: 100, Seed: 2}), nil
		}},
		{"random", func() (*core.Layout, error) {
			return core.RandomLayout(g.NumV, 2, 3), nil
		}},
	}
	for _, e := range entries {
		lay, err := e.f()
		if err != nil {
			return err
		}
		q := core.Evaluate(g, lay)
		dc := core.DistanceCorrelation(g, lay, 12, 5)
		np := quality.NeighborhoodPreservation(g, lay, 6, 80, 5)
		cr := quality.SampledCrossingRate(g, lay, 20000, 5)
		fprintf(w, "%-18s %12.5f %10.3f %11.3f %10.4f\n", e.name, q.HallRatio, dc, np, cr)
	}
	return nil
}

// StreamExperiment measures sustained memory bandwidth with the STREAM
// Triad kernel (a[i] = b[i] + q·c[i]) — the §4.1 hardware
// characterization ("we observed a STREAM Triad bandwidth of 112 GB/s on
// the 28-core system"), which contextualizes the memory-bound phases.
func StreamExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	n := 1 << 24 // 3 × 128 MiB working set
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = 1.5
		c[i] = 2.5
	}
	const q = 3.0
	triad := func() {
		parallel.ForBlock(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + q*c[i]
			}
		})
	}
	triad() // warm up / fault pages
	best := minTime(maxInt(cfg.Reps, 5), triad)
	bytes := float64(3 * 8 * n)
	fprintf(w, "STREAM Triad: %d elements, best of %d: %.4fs = %.1f GB/s (paper's node: 112 GB/s on 28 cores)\n",
		n, maxInt(cfg.Reps, 5), seconds(best), bytes/seconds(best)/1e9)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MemoryExperiment measures allocation footprints of the pipeline
// variants: decoupled ParHDE (stores B: O(sn) extra, per Table 1),
// coupled ParHDE (B never materialized), and the prior baseline (explicit
// Laplacian) — the memory story behind §4.2's observation that the prior
// implementation could not fit the largest graphs in 128 GB.
func MemoryExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	s := 50
	fprintf(w, "Allocation footprint (plate mesh, n=%d m=%d, s=%d)\n", g.NumV, g.NumEdges(), s)
	fprintf(w, "%-22s %14s %12s\n", "variant", "alloc (MB)", "time (s)")
	measure := func(name string, f func()) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		f()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		fprintf(w, "%-22s %14.1f %12.4f\n", name,
			float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), seconds(elapsed))
	}
	opt := core.Options{Subspace: s, Seed: 1, SkipConnectivityCheck: true}
	measure("parhde (decoupled)", func() {
		if _, _, err := core.ParHDE(g, opt); err != nil {
			panic(err)
		}
	})
	copt := opt
	copt.Coupled = true
	measure("parhde (coupled)", func() {
		if _, _, err := core.ParHDE(g, copt); err != nil {
			panic(err)
		}
	})
	measure("prior (explicit L)", func() {
		if _, _, err := core.Prior(g, opt); err != nil {
			panic(err)
		}
	})
	return nil
}

// ReorderExperiment closes the §4.4 ordering loop: take the web analogue
// with its ids randomly scrambled (the configuration that slows LS), then
// recover locality with (a) RCM and (b) a Hilbert order over ParHDE's own
// coordinates, and measure mean gap, bandwidth, and the LS kernel time.
func ReorderExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	orig := gen.WebGraph(scaled(100000, cfg.Factor), 16, 103)
	scrambled, err := graph.Permute(orig, graph.RandomPermutation(orig.NumV, 99))
	if err != nil {
		return err
	}
	fprintf(w, "Locality-recovering reorderings (web analogue, n=%d m=%d)\n", orig.NumV, orig.NumEdges())
	fprintf(w, "%-24s %12s %12s %12s\n", "ordering", "mean gap", "bandwidth", "LS time (s)")

	lsTime := func(g *graph.CSR) float64 {
		deg := g.WeightedDegrees()
		s := linalg.NewDense(g.NumV, 10)
		for i := range s.Data {
			s.Data[i] = float64(i % 13)
		}
		return seconds(minTime(cfg.Reps, func() { linalg.LapMulDenseTiledPackedBudget(parallel.Live(), g, deg, s, nil, nil, nil) }))
	}
	show := func(name string, g *graph.CSR) {
		fprintf(w, "%-24s %12.0f %12d %12.4f\n",
			name, graph.GapSummary(g).Mean, order.Bandwidth(g), lsTime(g))
	}
	show("original (crawl order)", orig)
	show("random permutation", scrambled)

	rcmPerm := order.RCM(scrambled)
	rcmG, err := graph.Permute(scrambled, rcmPerm)
	if err != nil {
		return err
	}
	show("RCM", rcmG)

	lay, _, err := core.ParHDE(scrambled, core.Options{Subspace: 10, Seed: 1, SkipConnectivityCheck: true})
	if err != nil {
		return err
	}
	hilPerm, err := order.HilbertFromLayout(lay, 12)
	if err != nil {
		return err
	}
	hilG, err := graph.Permute(scrambled, hilPerm)
	if err != nil {
		return err
	}
	show("Hilbert(ParHDE coords)", hilG)
	return nil
}
