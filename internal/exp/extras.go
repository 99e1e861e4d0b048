package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/sssp"
)

// SSSPExperiment reproduces the §4.4 weighted-graph study on the road
// analogue: unit-weight SSSP vs BFS-based ParHDE (paper: 18% slower), and
// random integer weights across a Δ sweep (paper: ≥ 3.66× slower).
func SSSPExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	side := scaled(220, cfg.Factor)
	road := gen.Road(side, side, 105)
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}

	tBFS := minTime(cfg.Reps, func() {
		if _, _, err := core.ParHDE(road, opt); err != nil {
			panic(err)
		}
	})
	fprintf(w, "SSSP experiment (road analogue, n=%d m=%d, s=10)\n", road.NumV, road.NumEdges())
	fprintf(w, "%-28s %12s %10s\n", "configuration", "time (s)", "vs BFS")
	fprintf(w, "%-28s %12.4f %9.2fx\n", "unweighted BFS", seconds(tBFS), 1.0)

	unit := road.WithUnitWeights()
	uopt := opt
	uopt.Delta = 1
	tUnit := minTime(cfg.Reps, func() {
		if _, _, err := core.ParHDE(unit, uopt); err != nil {
			panic(err)
		}
	})
	fprintf(w, "%-28s %12.4f %9.2fx\n", "SSSP, unit weights Δ=1", seconds(tUnit), ratio(tUnit, tBFS))

	weighted := gen.WithRandomWeights(road, 100, 7)
	for _, delta := range []float64{1, 10, 50, 0 /* heuristic */} {
		wopt := opt
		wopt.Delta = delta
		label := "SSSP, rand weights Δ=heur"
		if delta > 0 {
			label = fprintfStr("SSSP, rand weights Δ=%g", delta)
		}
		tW := minTime(cfg.Reps, func() {
			if _, _, err := core.ParHDE(weighted, wopt); err != nil {
				panic(err)
			}
		})
		fprintf(w, "%-28s %12.4f %9.2fx\n", label, seconds(tW), ratio(tW, tBFS))
	}
	return nil
}

// PermExperiment reproduces the §4.4 vertex-ordering study: randomly
// permuting a locality-ordered graph slows the LS step (paper: 6.8× on
// sk-2005) and the whole run (paper: 3.5×). Two inputs are measured: the
// web/sk analogue, and a large 2-D grid whose row-major ordering is the
// ideal-locality extreme. How much of the slowdown materializes depends on
// the host's last-level cache relative to n×8 bytes per dense column —
// crank Factor until the column no longer fits to see the full effect.
func PermExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	inputs := []NamedGraph{
		{"web", "sk-2005", gen.WebGraph(scaled(200000, cfg.Factor), 16, 103)},
		{"grid", "ordered mesh", gen.Grid2D(scaled(1000, cfg.Factor), scaled(1000, cfg.Factor))},
	}
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
	fprintf(w, "Vertex-ordering experiment (paper: LS 6.8x, overall 3.5x slower after permutation)\n")
	fprintf(w, "%-8s %-22s %12s %12s %12s\n", "graph", "ordering", "total (s)", "LS (s)", "mean gap")
	for _, ng := range inputs {
		perm := graph.RandomPermutation(ng.G.NumV, 99)
		gp, err := graph.Permute(ng.G, perm)
		if err != nil {
			return err
		}
		measure := func(gg *graph.CSR) (total, ls time.Duration) {
			total = minTime(cfg.Reps, func() {
				_, rep, err := core.ParHDE(gg, opt)
				if err != nil {
					panic(err)
				}
				ls = rep.Breakdown.LS
			})
			return total, ls
		}
		tOrig, lsOrig := measure(ng.G)
		tPerm, lsPerm := measure(gp)
		fprintf(w, "%-8s %-22s %12.4f %12.4f %12.0f\n", ng.Name, "original (locality)", seconds(tOrig), seconds(lsOrig), graph.GapSummary(ng.G).Mean)
		fprintf(w, "%-8s %-22s %12.4f %12.4f %12.0f\n", ng.Name, "random permutation", seconds(tPerm), seconds(lsPerm), graph.GapSummary(gp).Mean)
		fprintf(w, "%-8s slowdown: LS %.1fx, overall %.1fx\n", ng.Name, ratio(lsPerm, lsOrig), ratio(tPerm, tOrig))
	}
	return nil
}

// RefineExperiment reproduces the §4.5.3 claim: ParHDE followed by
// centroid refinement reaches an eigenvector-quality layout much faster
// than cold power iteration (22×–131× in Kirmani et al. [27]).
func RefineExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	fprintf(w, "Preprocessing experiment (plate mesh, n=%d m=%d)\n", g.NumV, g.NumEdges())

	// Warm path: ParHDE seed + refinement sweeps to a target residual.
	const target = 1e-3
	start := time.Now()
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1, SkipConnectivityCheck: true})
	if err != nil {
		return err
	}
	var warmSweeps int
	for it := 0; it < 100000; it += 10 {
		st := core.Refine(g, lay, 10, 0)
		warmSweeps += st.Iterations
		if st.Residual < target {
			break
		}
	}
	tWarm := time.Since(start)
	warmRes := core.EigenResidual(g, lay)

	// Cold path: power iteration from random vectors to the same residual.
	start = time.Now()
	var coldIters int
	var coldRes float64
	for iters := 200; ; iters *= 2 {
		pw := eigen.WalkPower(g, 2, eigen.PowerOptions{Seed: 9, MaxIters: iters, Tol: 0})
		coldIters = pw.Iterations[0] + pw.Iterations[1]
		coldLay := &core.Layout{Coords: pw.Vectors}
		coldRes = core.EigenResidual(g, coldLay)
		if coldRes <= warmRes*1.05 || iters > 100000 {
			break
		}
	}
	tCold := time.Since(start)

	fprintf(w, "%-34s %12s %12s %10s\n", "method", "time (s)", "residual", "sweeps")
	fprintf(w, "%-34s %12.4f %12.2e %10d\n", "ParHDE + centroid refinement", seconds(tWarm), warmRes, warmSweeps)
	fprintf(w, "%-34s %12.4f %12.2e %10d\n", "cold power iteration", seconds(tCold), coldRes, coldIters)
	fprintf(w, "speedup of warm start: %.1fx (paper reports 22x-131x for the full scheme)\n", ratio(tCold, tWarm))
	return nil
}

// LSAblation isolates the fused LS kernel — the production
// LapMulDenseTiledPackedBudget — against the explicit-Laplacian SpMM (the
// paper reports its fused kernel beats MKL's sparse SpMM by 2.5× on
// average, partly by never materializing L).
func LSAblation(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fprintf(w, "LS kernel ablation: fused L·S vs explicit-Laplacian SpMM, s=%d\n", cfg.Subspace)
	fprintf(w, "%-10s %12s %14s %12s %11s\n", "graph", "fused (s)", "explicit (s)", "build L (s)", "exp/fused")
	for _, ng := range LargeCollection(cfg.Factor) {
		g := ng.G
		deg := g.WeightedDegrees()
		s := linalg.NewDense(g.NumV, cfg.Subspace)
		for i := range s.Data {
			s.Data[i] = float64(i%17) * 0.25
		}
		tFused := minTime(cfg.Reps, func() { linalg.LapMulDenseTiledPackedBudget(parallel.Live(), g, deg, s, nil, nil, nil) })
		var lap *linalg.ExplicitLaplacian
		tBuild := minTime(1, func() { lap = linalg.NewExplicitLaplacian(g) })
		tExp := minTime(cfg.Reps, func() { lap.MulDense(s) })
		fprintf(w, "%-10s %12.4f %14.4f %12.4f %10.2fx\n",
			ng.Name, seconds(tFused), seconds(tExp), seconds(tBuild), ratio(tExp, tFused))
	}
	return nil
}

// DeltaSweep measures Δ-stepping sensitivity to the bucket width on the
// weighted road analogue — the "performance is dependent on the setting
// for Δ" observation of §4.4.
func DeltaSweep(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	side := scaled(220, cfg.Factor)
	g := gen.WithRandomWeights(gen.Road(side, side, 105), 100, 7)
	dist := make([]float64, g.NumV)
	fprintf(w, "Δ-stepping sweep (weighted road analogue, n=%d, weights 1..100)\n", g.NumV)
	fprintf(w, "%8s %12s %10s %14s\n", "delta", "time (s)", "buckets", "light phases")
	for _, delta := range []float64{1, 5, 10, 25, 50, 100, 200} {
		var st sssp.Stats
		t := minTime(cfg.Reps, func() { st = sssp.DeltaStepping(g, 0, delta, dist) })
		fprintf(w, "%8g %12.4f %10d %14d\n", delta, seconds(t), st.Buckets, st.LightPhases)
	}
	return nil
}

func fprintfStr(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}
