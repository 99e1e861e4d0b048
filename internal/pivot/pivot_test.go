package pivot

import (
	"math"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/sssp"
)

func TestKCentersPhaseColumnsAreBFSDistances(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s := 5
	b := linalg.NewDense(g.NumV, s)
	ps := Phase(g, b, 0, KCenters, bfs.Options{}, nil, nil)
	if len(ps.Sources) != s {
		t.Fatalf("%d sources, want %d", len(ps.Sources), s)
	}
	want := make([]int32, g.NumV)
	for i, src := range ps.Sources {
		bfs.Serial(g, src, want)
		col := b.Col(i)
		for j := range want {
			if col[j] != float64(want[j]) {
				t.Fatalf("column %d (src %d) wrong at %d: %g vs %d", i, src, j, col[j], want[j])
			}
		}
	}
}

func TestKCentersFarthestFirstProperty(t *testing.T) {
	// Each subsequent source must maximize the min-distance to all
	// previous sources (Gonzalez's invariant).
	g := gen.PlateWithHoles(25, 25)
	s := 4
	b := linalg.NewDense(g.NumV, s)
	ps := Phase(g, b, 3, KCenters, bfs.Options{}, nil, nil)
	for i := 1; i < s; i++ {
		chosen := ps.Sources[i]
		var chosenMin float64 = math.Inf(1)
		best := 0.0
		for v := 0; v < g.NumV; v++ {
			dmin := math.Inf(1)
			for j := 0; j < i; j++ {
				if d := b.At(v, j); d < dmin {
					dmin = d
				}
			}
			if dmin > best {
				best = dmin
			}
			if int32(v) == chosen {
				chosenMin = dmin
			}
		}
		if chosenMin != best {
			t.Fatalf("source %d has min-dist %g, farthest available %g", i, chosenMin, best)
		}
	}
}

func TestKCentersSourcesOnPath(t *testing.T) {
	// On a path started at vertex 0, the second pivot must be the far end.
	g := gen.Path(100)
	b := linalg.NewDense(g.NumV, 2)
	ps := Phase(g, b, 0, KCenters, bfs.Options{}, nil, nil)
	if ps.Sources[1] != 99 {
		t.Fatalf("second pivot %d, want 99", ps.Sources[1])
	}
}

func TestRandomPhaseDistancesCorrect(t *testing.T) {
	g := gen.Kron(9, 8, 4)
	s := 6
	b := linalg.NewDense(g.NumV, s)
	ps := Phase(g, b, 7, Random, bfs.Options{}, nil, nil)
	if len(ps.Sources) != s {
		t.Fatalf("%d sources", len(ps.Sources))
	}
	if ps.Sources[0] != 7 {
		t.Fatalf("start vertex %d, want 7", ps.Sources[0])
	}
	seen := map[int32]bool{}
	for _, src := range ps.Sources {
		if seen[src] {
			t.Fatalf("repeated pivot %d", src)
		}
		seen[src] = true
	}
	want := make([]int32, g.NumV)
	for i, src := range ps.Sources {
		bfs.Serial(g, src, want)
		col := b.Col(i)
		for j := range want {
			if col[j] != float64(want[j]) {
				t.Fatalf("random phase column %d wrong at %d", i, j)
			}
		}
	}
}

func TestPhaseTimerHooksInvoked(t *testing.T) {
	g := gen.Grid2D(10, 10)
	b := linalg.NewDense(g.NumV, 3)
	var trav, other int
	Phase(g, b, 0, KCenters, bfs.Options{},
		func(f func()) { trav++; f() },
		func(f func()) { other++; f() })
	if trav != 3 || other != 3 {
		t.Fatalf("hooks: traversal %d, other %d, want 3 each", trav, other)
	}
}

func TestPhaseWeightedMatchesDijkstra(t *testing.T) {
	g := gen.WithRandomWeights(gen.Grid2D(15, 15), 9, 5)
	s := 4
	b := linalg.NewDense(g.NumV, s)
	ps := PhaseWeighted(g, b, 2, 0, nil, nil)
	want := make([]float64, g.NumV)
	for i, src := range ps.Sources {
		sssp.Dijkstra(g, src, want)
		col := b.Col(i)
		for j := range want {
			if math.Abs(col[j]-want[j]) > 1e-9 {
				t.Fatalf("weighted column %d wrong at %d: %g vs %g", i, j, col[j], want[j])
			}
		}
	}
	// Farthest-first invariant holds for real distances too.
	second := ps.Sources[1]
	dmin0 := b.Col(0)
	best := 0.0
	for _, d := range dmin0 {
		if d > best {
			best = d
		}
	}
	if dmin0[second] != best {
		t.Fatalf("weighted second pivot at distance %g, farthest %g", dmin0[second], best)
	}
}

func TestStrategyString(t *testing.T) {
	if KCenters.String() != "k-centers" || Random.String() != "random" {
		t.Fatal("strategy names wrong")
	}
}

func TestRandomPhaseMoreSourcesThanVertices(t *testing.T) {
	g := gen.Complete(5)
	b := linalg.NewDense(g.NumV, 4)
	ps := Phase(g, b, 1, Random, bfs.Options{}, nil, nil)
	if len(ps.Sources) != 4 {
		t.Fatalf("%d sources", len(ps.Sources))
	}
}

var _ = graph.CSR{} // keep the import for fixture helpers extended later

func TestRandomMSPhaseDistancesCorrect(t *testing.T) {
	g := gen.Kron(9, 8, 4)
	s := 70 // exercises two MSBFS batches
	b := linalg.NewDense(g.NumV, s)
	ps := Phase(g, b, 3, RandomMS, bfs.Options{}, nil, nil)
	if len(ps.Sources) != s || ps.Sources[0] != 3 {
		t.Fatalf("sources %v", ps.Sources[:3])
	}
	want := make([]int32, g.NumV)
	for _, i := range []int{0, 33, 69} {
		bfs.Serial(g, ps.Sources[i], want)
		col := b.Col(i)
		for j := range want {
			if col[j] != float64(want[j]) {
				t.Fatalf("msbfs phase column %d wrong at %d: %g vs %d", i, j, col[j], want[j])
			}
		}
	}
	if RandomMS.String() != "random-msbfs" {
		t.Fatal("strategy name")
	}
	// The phase records one Stats entry per 64-source batch (70 pivots →
	// 2 batches) for the observability rollups.
	if len(ps.Traversal) != 2 {
		t.Fatalf("traversal stats entries = %d, want 2", len(ps.Traversal))
	}
	var steps int
	for _, st := range ps.Traversal {
		steps += st.TopDownSteps + st.BottomUpSteps
		if st.ScannedEdges <= 0 {
			t.Fatalf("batch recorded no scanned edges: %+v", st)
		}
	}
	if steps <= 0 {
		t.Fatal("no direction steps recorded")
	}
}

func TestRandomMSDirectionOptionsMatchDefault(t *testing.T) {
	// bfs.Options flow through to the multi-source engine: α and β so
	// large that every level runs bottom-up must keep the columns bitwise
	// identical while running zero top-down steps.
	g := gen.Kron(9, 8, 6)
	s := 40
	b1 := linalg.NewDense(g.NumV, s)
	b2 := linalg.NewDense(g.NumV, s)
	p1 := Phase(g, b1, 5, RandomMS, bfs.Options{}, nil, nil)
	p2 := Phase(g, b2, 5, RandomMS, bfs.Options{Alpha: 1 << 40, Beta: 1 << 40}, nil, nil)
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatal("direction thresholds changed the distance matrix")
		}
	}
	for _, st := range p2.Traversal {
		if st.TopDownSteps != 0 || st.BottomUpSteps == 0 {
			t.Fatalf("forced bottom-up phase ran top-down: %+v", st)
		}
	}
	var td int
	for _, st := range p1.Traversal {
		td += st.TopDownSteps
	}
	if td == 0 {
		t.Fatal("default phase never ran top-down on kron")
	}
}

func TestRandomMSMatchesRandomPhase(t *testing.T) {
	// Same seed → same pivot set; distance columns must agree between the
	// serial-concurrent and bit-parallel engines.
	g := gen.Grid2D(20, 20)
	s := 10
	b1 := linalg.NewDense(g.NumV, s)
	b2 := linalg.NewDense(g.NumV, s)
	p1 := Phase(g, b1, 7, Random, bfs.Options{}, nil, nil)
	p2 := Phase(g, b2, 7, RandomMS, bfs.Options{}, nil, nil)
	for i := range p1.Sources {
		if p1.Sources[i] != p2.Sources[i] {
			t.Fatalf("pivot sets diverge at %d", i)
		}
	}
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatal("distance matrices diverge")
		}
	}
}
