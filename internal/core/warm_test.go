package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workspace"
)

// mutateEdges returns a copy of g with delta edges flipped (present edges
// removed, absent ones added), deterministically.
func mutateEdges(t *testing.T, g *graph.CSR, delta int, seed uint64) *graph.CSR {
	t.Helper()
	edges := make(map[[2]int32]bool)
	for v := int32(0); int(v) < g.NumV; v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				edges[[2]int32{v, u}] = true
			}
		}
	}
	h := seed
	n := int32(g.NumV)
	for changed := 0; changed < delta; {
		h = splitmix(h)
		u := int32(h % uint64(n))
		h = splitmix(h)
		v := int32(h % uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int32{u, v}
		if edges[k] {
			// Keep deletions rare so connectivity survives.
			if h&7 != 0 {
				continue
			}
			delete(edges, k)
		} else {
			edges[k] = true
		}
		changed++
	}
	list := make([]graph.Edge, 0, len(edges))
	for k := range edges {
		list = append(list, graph.Edge{U: k[0], V: k[1]})
	}
	out, err := graph.FromEdges(g.NumV, list, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatalf("mutateEdges: %v", err)
	}
	return out
}

func TestWarmStartRunsAndRefines(t *testing.T) {
	g := gen.Grid2D(30, 30)
	prior, rep0, err := ParHDE(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Warm {
		t.Fatal("cold run reported Warm")
	}
	g2 := mutateEdges(t, g, 8, 99)
	lay, rep, err := ParHDE(g2, Options{Seed: 3, Prior: prior, PriorDeltaEdges: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := defaultSweeps(g2, Options{Prior: prior, PriorDeltaEdges: 8})
	if !rep.Warm || rep.RefineSweeps != want || want < 2 || want > DefaultWarmSweeps {
		t.Fatalf("warm=%v sweeps=%d, want warm with %d sweeps (2..%d)",
			rep.Warm, rep.RefineSweeps, want, DefaultWarmSweeps)
	}
	if rep.Breakdown.WarmRefine <= 0 || rep.Breakdown.Total <= 0 {
		t.Fatalf("warm breakdown not recorded: %+v", rep.Breakdown)
	}
	if lay.NumVertices() != g2.NumV || lay.Dims() != 2 {
		t.Fatalf("warm layout shape %dx%d", lay.NumVertices(), lay.Dims())
	}
	for j := 0; j < lay.Dims(); j++ {
		for _, v := range lay.Coords.Col(j) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("warm layout has non-finite coordinates")
			}
		}
	}
	// The refinement must actually move the prior (the graph changed) but
	// stay anchored to it: correlate axis 0 before/after.
	moved := false
	for i, v := range lay.X() {
		if v != prior.X()[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("warm refinement did not move any coordinate")
	}
	if c := axisCorr(prior.X(), lay.X()); math.Abs(c) < 0.9 {
		t.Fatalf("warm layout decorrelated from prior: |r| = %.3f", math.Abs(c))
	}
}

func axisCorr(a, b []float64) float64 {
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func TestWarmStartFallsBackCold(t *testing.T) {
	g := gen.Grid2D(20, 20)
	prior, _, err := ParHDE(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.CSR
		opt  Options
	}{
		{"nil prior", g, Options{Seed: 1}},
		{"delta too large", g, Options{Seed: 1, Prior: prior, PriorDeltaEdges: int64(g.NumEdges())}},
		{"unknown delta", g, Options{Seed: 1, Prior: prior, PriorDeltaEdges: -1}},
		{"dims mismatch", g, Options{Seed: 1, Prior: prior, Dims: 3, Subspace: 8}},
		{"weighted graph", g.WithUnitWeights(), Options{Seed: 1, Prior: prior}},
		{"prior larger than graph", gen.Grid2D(10, 10), Options{Seed: 1, Prior: prior}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, rep, err := ParHDE(tc.g, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Warm {
				t.Fatal("ineligible prior took the warm path")
			}
		})
	}
	// Tightening the bound flips an otherwise-eligible prior to cold.
	_, rep, err := ParHDE(g, Options{Seed: 1, Prior: prior, PriorDeltaEdges: 4, MaxPriorDelta: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warm {
		t.Fatal("MaxPriorDelta bound not enforced")
	}
}

func TestWarmStartPlacesNewVertices(t *testing.T) {
	g := gen.Grid2D(20, 20) // 400 vertices
	prior, _, err := ParHDE(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Grow the graph by two vertices: 400 hangs off 0, 401 hangs off 400
	// only (so its only neighbor is itself new).
	var edges []graph.Edge
	for v := int32(0); int(v) < g.NumV; v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				edges = append(edges, graph.Edge{U: v, V: u})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 400}, graph.Edge{U: 400, V: 401})
	g2, err := graph.FromEdges(g.NumV+2, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, rep, err := ParHDE(g2, Options{Seed: 5, Prior: prior, PriorDeltaEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm {
		t.Fatal("growing delta within bound did not warm start")
	}
	if lay.NumVertices() != 402 {
		t.Fatalf("layout has %d vertices, want 402", lay.NumVertices())
	}
	// The new leaf should land near its anchor, not at the far edge of
	// the drawing: distance(400, 0) well under the drawing span.
	dx, dy := lay.X()[400]-lay.X()[0], lay.Y()[400]-lay.Y()[0]
	mn, mx := lay.Bounds()
	span := math.Max(mx[0]-mn[0], mx[1]-mn[1])
	if d := math.Hypot(dx, dy); d > span/4 {
		t.Fatalf("new vertex placed %.3g from anchor (span %.3g)", d, span)
	}
}

func TestWarmStartDeterministicAcrossBudgetsAndWorkspace(t *testing.T) {
	g := gen.Kron(10, 8, 7)
	prior, _, err := ParHDE(g, Options{Seed: 7, SkipConnectivityCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	g2 := mutateEdges(t, g, 6, 11)
	base := Options{Seed: 7, Prior: prior, PriorDeltaEdges: 6, SkipConnectivityCheck: true}

	var ref *Layout
	for _, workers := range []int{1, 2, 4, 0} {
		opt := base
		opt.Workers = workers
		lay, rep, err := ParHDE(g2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Warm {
			t.Fatal("expected warm path")
		}
		if ref == nil {
			ref = lay.Clone()
			continue
		}
		for j := 0; j < ref.Dims(); j++ {
			a, b := ref.Coords.Col(j), lay.Coords.Col(j)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: coordinate (%d,%d) differs: %g vs %g", workers, i, j, a[i], b[i])
				}
			}
		}
	}

	// A workspace-backed run is bit-identical too, twice in a row (reuse).
	ws := workspace.New()
	for run := 0; run < 2; run++ {
		opt := base
		opt.Workspace = ws
		lay, rep, err := ParHDE(g2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Warm {
			t.Fatal("expected warm path")
		}
		for j := 0; j < ref.Dims(); j++ {
			a, b := ref.Coords.Col(j), lay.Coords.Col(j)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workspace run %d: coordinate (%d,%d) differs", run, i, j)
				}
			}
		}
	}
}

func TestWarmStartPriorNotMutated(t *testing.T) {
	g := gen.Grid2D(16, 16)
	prior, _, err := ParHDE(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := prior.Clone()
	g2 := mutateEdges(t, g, 4, 17)
	if _, rep, err := ParHDE(g2, Options{Seed: 2, Prior: prior, PriorDeltaEdges: 4}); err != nil || !rep.Warm {
		t.Fatalf("warm run failed: warm=%v err=%v", rep != nil && rep.Warm, err)
	}
	for j := 0; j < prior.Dims(); j++ {
		a, b := prior.Coords.Col(j), snapshot.Coords.Col(j)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("prior coordinate (%d,%d) mutated", i, j)
			}
		}
	}
}

// TestWarmRefinementRejectsNonFinitePrior: a prior carrying a NaN or an
// infinity spreads through the sweeps' neighbor means and D-norm
// corrections; ParHDE must return ErrNonFiniteRefinement rather than a
// layout with non-finite coordinates, with or without a workspace.
func TestWarmRefinementRejectsNonFinitePrior(t *testing.T) {
	g := gen.Grid2D(20, 20)
	good, _, err := ParHDE(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2 := mutateEdges(t, g, 4, 5)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, ws := range []*workspace.Workspace{nil, workspace.New()} {
			prior := good.Clone()
			prior.Coords.Col(1)[37] = bad
			lay, _, err := ParHDE(g2, Options{Seed: 1, Prior: prior, PriorDeltaEdges: 4, Workspace: ws})
			if !errors.Is(err, ErrNonFiniteRefinement) || lay != nil {
				t.Fatalf("prior with %v (workspace %v): got layout %v, err %v; want ErrNonFiniteRefinement",
					bad, ws != nil, lay != nil, err)
			}
		}
	}
	// The same graph and delta from the finite prior still refine.
	if _, rep, err := ParHDE(g2, Options{Seed: 1, Prior: good, PriorDeltaEdges: 4}); err != nil || !rep.Warm {
		t.Fatalf("finite prior: warm=%v err=%v", rep != nil && rep.Warm, err)
	}
}
