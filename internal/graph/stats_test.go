package graph

import (
	"math"
	"testing"
)

func pathGraph(t *testing.T, n int) *CSR {
	t.Helper()
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{U: int32(i), V: int32(i + 1)})
	}
	return mustFromEdges(t, n, edges, BuildOptions{KeepAllComponents: true})
}

func TestPseudoDiameterPath(t *testing.T) {
	g := pathGraph(t, 100)
	// Double sweep from the middle finds the exact diameter of a path.
	if d := PseudoDiameter(g, 50); d != 99 {
		t.Fatalf("path diameter %d, want 99", d)
	}
}

func TestPseudoDiameterCompleteAndEmpty(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	g := mustFromEdges(t, 3, edges, BuildOptions{})
	if d := PseudoDiameter(g, 0); d != 1 {
		t.Fatalf("triangle diameter %d", d)
	}
	empty := &CSR{NumV: 0, Offsets: []int64{0}}
	if d := PseudoDiameter(empty, 0); d != 0 {
		t.Fatalf("empty diameter %d", d)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := pathGraph(t, 5) // degrees: 1,2,2,2,1
	h := DegreeHistogram(g)
	if h[1] != 2 || h[2] != 3 {
		t.Fatalf("histogram %v", h)
	}
	var total int64
	for _, c := range h {
		total += c
	}
	if total != int64(g.NumV) {
		t.Fatalf("histogram total %d", total)
	}
}

func TestGiniRegularVsSkewed(t *testing.T) {
	// A cycle is perfectly regular: Gini 0. A star is maximally skewed.
	cycle := func(n int) *CSR {
		edges := make([]Edge, 0, n)
		for i := 0; i < n; i++ {
			edges = append(edges, Edge{U: int32(i), V: int32((i + 1) % n)})
		}
		return mustFromEdges(t, n, edges, BuildOptions{})
	}(50)
	if gi := Gini(cycle); math.Abs(gi) > 1e-9 {
		t.Fatalf("cycle Gini %g", gi)
	}
	star := func(n int) *CSR {
		edges := make([]Edge, 0, n-1)
		for i := 1; i < n; i++ {
			edges = append(edges, Edge{U: 0, V: int32(i)})
		}
		return mustFromEdges(t, n, edges, BuildOptions{})
	}(50)
	if gi := Gini(star); gi < 0.4 {
		t.Fatalf("star Gini %g not skewed", gi)
	}
}

func TestSummarize(t *testing.T) {
	g := pathGraph(t, 20)
	s := Summarize(g)
	if s.N != 20 || s.M != 19 || s.MaxDegree != 2 || s.PseudoDiameter != 19 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.AvgDegree-1.9) > 1e-12 || s.MeanGap != 2 {
		t.Fatalf("summary %+v", s)
	}
}

func TestLowDiameterDecomposition(t *testing.T) {
	g := mustFromEdges(t, 0, nil, BuildOptions{KeepAllComponents: true})
	if label, c := LowDiameterDecomposition(g, 0.2, 1); c != 0 || len(label) != 0 {
		t.Fatal("empty graph decomposition wrong")
	}

	grid := func() *CSR {
		var edges []Edge
		id := func(r, c int) int32 { return int32(r*40 + c) }
		for r := 0; r < 40; r++ {
			for c := 0; c < 40; c++ {
				if c+1 < 40 {
					edges = append(edges, Edge{U: id(r, c), V: id(r, c+1)})
				}
				if r+1 < 40 {
					edges = append(edges, Edge{U: id(r, c), V: id(r+1, c)})
				}
			}
		}
		return mustFromEdges(t, 1600, edges, BuildOptions{KeepAllComponents: true})
	}()
	for _, beta := range []float64{0.1, 0.3} {
		label, clusters := LowDiameterDecomposition(grid, beta, 7)
		if clusters < 2 {
			t.Fatalf("beta=%g: only %d clusters", beta, clusters)
		}
		for v, l := range label {
			if l < 0 || int(l) >= clusters {
				t.Fatalf("beta=%g: vertex %d unlabeled (%d)", beta, v, l)
			}
		}
		// Cut fraction is O(beta): allow a generous constant.
		if cf := CutFraction(grid, label); cf > 6*beta {
			t.Fatalf("beta=%g: cut fraction %.3f too high", beta, cf)
		}
		// Cluster radius is O(log n / beta) w.h.p.
		bound := int32(4 * math.Log(1600) / beta)
		if r := ClusterRadius(grid, label, clusters); r > bound {
			t.Fatalf("beta=%g: cluster radius %d exceeds O(log n/β) bound %d", beta, r, bound)
		}
	}
	// Larger beta → more clusters with smaller radius.
	lSmall, cSmall := LowDiameterDecomposition(grid, 0.05, 7)
	lBig, cBig := LowDiameterDecomposition(grid, 0.5, 7)
	if cBig <= cSmall {
		t.Fatalf("clusters did not grow with beta: %d vs %d", cSmall, cBig)
	}
	if ClusterRadius(grid, lBig, cBig) >= ClusterRadius(grid, lSmall, cSmall) {
		t.Fatal("cluster radius did not shrink with beta")
	}
}

func TestLDDDeterministicForSeed(t *testing.T) {
	g := pathGraph(t, 300)
	a, ca := LowDiameterDecomposition(g, 0.2, 5)
	b, cb := LowDiameterDecomposition(g, 0.2, 5)
	if ca != cb {
		t.Fatal("cluster counts differ for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("labels differ for same seed")
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3; induce on {0,1,3}.
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 3, W: 5}}
	g := mustFromEdges(t, 4, edges, BuildOptions{Weighted: true})
	sub, orig, err := InducedSubgraph(g, []int32{3, 0, 1}) // unordered input
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumV != 3 || sub.NumEdges() != 2 {
		t.Fatalf("sub n=%d m=%d", sub.NumV, sub.NumEdges())
	}
	want := []int32{0, 1, 3}
	for i := range want {
		if orig[i] != want[i] {
			t.Fatalf("orig = %v", orig)
		}
	}
	// Edge {0,3} weight preserved (new ids 0 and 2).
	if !sub.HasEdge(0, 2) {
		t.Fatal("edge {0,3} lost")
	}
	for k, u := range sub.Neighbors(0) {
		if u == 2 && sub.NeighborWeights(0)[k] != 5 {
			t.Fatalf("weight lost: %g", sub.NeighborWeights(0)[k])
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if _, _, err := InducedSubgraph(g, []int32{0, 0}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, _, err := InducedSubgraph(g, []int32{99}); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestNeighborhood(t *testing.T) {
	g := pathGraph(t, 20)
	vs, err := Neighborhood(g, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 5 { // 8,9,10,11,12
		t.Fatalf("2-hop neighborhood of path center: %v", vs)
	}
	if vs[0] != 10 {
		t.Fatal("center must come first")
	}
	if _, err := Neighborhood(g, -1, 2); err == nil {
		t.Fatal("bad center accepted")
	}
	if _, err := Neighborhood(g, 0, -1); err == nil {
		t.Fatal("negative hops accepted")
	}
	// hops=0 → just the center.
	vs, err = Neighborhood(g, 5, 0)
	if err != nil || len(vs) != 1 || vs[0] != 5 {
		t.Fatalf("0-hop neighborhood %v, err %v", vs, err)
	}
}
