package bfs

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// msRows allocates s distance rows for an n-vertex graph.
func msRows(s, n int) [][]int32 {
	rows := make([][]int32, s)
	for i := range rows {
		rows[i] = make([]int32, n)
	}
	return rows
}

// msRun traverses sources under one budget/options pair into fresh rows.
func msRun(g *graph.CSR, sources []int32, bud parallel.Budget, opt MSOptions) ([][]int32, Stats) {
	rows := msRows(len(sources), g.NumV)
	st := MSBFSOpts(bud, g, sources, rows, NewScratch(g.NumV, bud.Workers()), opt)
	return rows, st
}

// msRunTopDown is msRun through the top-down oracle.
func msRunTopDown(g *graph.CSR, sources []int32, bud parallel.Budget) ([][]int32, Stats) {
	rows := msRows(len(sources), g.NumV)
	st := msbfsTopDown(bud, g, sources, rows, NewScratch(g.NumV, bud.Workers()))
	return rows, st
}

// assertRowsEqual fails unless every distance row is bitwise identical.
func assertRowsEqual(t *testing.T, label string, want, got [][]int32) {
	t.Helper()
	for s := range want {
		for v := range want[s] {
			if want[s][v] != got[s][v] {
				t.Fatalf("%s: source %d dist[%d] = %d, want %d", label, s, v, got[s][v], want[s][v])
			}
		}
	}
}

// msbfsBudgets is the budget sweep of the equivalence tests: the serial
// fast path, two fixed parallel partitions, and the live budget.
func msbfsBudgets() []parallel.Budget {
	return []parallel.Budget{
		parallel.FixedBudget(1),
		parallel.FixedBudget(2),
		parallel.FixedBudget(4),
		parallel.Live(),
	}
}

// TestMSBFSDirOptAdversarial pins the direction-optimizing engine to the
// retained top-down oracle on the shapes that stress its block/summary
// machinery: a star (one level floods everything — instant bottom-up
// switch), a long path (frontier of one vertex forever — summaries must
// skip nearly every block), a disconnected graph (bottom-up keeps seeing
// unreachable missing bits), a 64-source full-mask batch (the `full`
// active-mask fast exit), and sizes straddling the msBlockVerts tile
// boundary — every case swept across budgets 1/2/4/live.
func TestMSBFSDirOptAdversarial(t *testing.T) {
	disc, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}},
		graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *graph.CSR
		sources []int32
	}{
		{"star", gen.Star(20000), []int32{0, 1, 19999}},
		{"path", gen.Path(9000), []int32{0, 4500, 8999}},
		{"disconnected", disc, []int32{0, 2}},
		{"kron", gen.Kron(11, 10, 7), nil},                                   // 64 sources filled below
		{"block-boundary-under", gen.Grid2D(63, 65), []int32{0, 2047, 4094}}, // n = 4095
		{"block-boundary-exact", gen.Grid2D(64, 64), []int32{0, 2048, 4095}}, // n = 4096
		{"block-boundary-over", gen.Grid2D(64, 65), []int32{0, 4095, 4096}},  // n = 4160 > one block
	}
	for _, tc := range cases {
		sources := tc.sources
		if sources == nil {
			sources = make([]int32, 64) // full-mask batch: every bit of `full` active
			for i := range sources {
				sources[i] = int32((i * 257) % tc.g.NumV)
			}
		}
		want, wantSt := msRunTopDown(tc.g, sources, parallel.FixedBudget(1))
		if wantSt.BottomUpSteps != 0 {
			t.Fatalf("%s: top-down oracle ran %d bottom-up steps", tc.name, wantSt.BottomUpSteps)
		}
		for _, bud := range msbfsBudgets() {
			got, _ := msRun(tc.g, sources, bud, MSOptions{})
			assertRowsEqual(t, tc.name+"/diropt", want, got)
			gotTD, st := msRunTopDown(tc.g, sources, bud)
			assertRowsEqual(t, tc.name+"/topdown", want, gotTD)
			if st.BottomUpSteps != 0 {
				t.Fatalf("%s: top-down oracle under budget ran bottom-up", tc.name)
			}
		}
	}
}

// TestMSBFSDirOptSwitchesOnKron asserts the engine actually takes the
// bottom-up direction on a skewed low-diameter graph and that doing so
// scans fewer edges than the top-down oracle (the γ < 1 work
// reduction the direction switch exists for).
func TestMSBFSDirOptSwitchesOnKron(t *testing.T) {
	g := gen.Kron(12, 12, 3)
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32((i * 997) % g.NumV)
	}
	_, opt := msRun(g, sources, parallel.FixedBudget(1), MSOptions{})
	_, td := msRunTopDown(g, sources, parallel.FixedBudget(1))
	if opt.BottomUpSteps == 0 {
		t.Fatalf("no bottom-up steps on kron: %+v", opt)
	}
	if opt.ScannedEdges >= td.ScannedEdges {
		t.Fatalf("direction optimization scanned %d ≥ top-down %d", opt.ScannedEdges, td.ScannedEdges)
	}
	if opt.Levels != td.Levels {
		t.Fatalf("level count diverged: %d vs %d", opt.Levels, td.Levels)
	}
}

// TestMSBFSStatsAdd covers the aggregation the observability rollups use.
func TestMSBFSStatsAdd(t *testing.T) {
	a := Stats{Levels: 3, TopDownSteps: 2, BottomUpSteps: 1, ScannedEdges: 10}
	a.Add(Stats{Levels: 2, TopDownSteps: 1, BottomUpSteps: 1, ScannedEdges: 5})
	want := Stats{Levels: 5, TopDownSteps: 3, BottomUpSteps: 2, ScannedEdges: 15}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

// TestMSBFSScratchShrinkReuse drives one scratch through a big graph,
// then a small one, then the big one again: the summary bitmaps must
// reslice correctly in both directions and stale bits from the earlier
// runs must never leak into later distance rows.
func TestMSBFSScratchShrinkReuse(t *testing.T) {
	big := gen.Grid2D(100, 90) // n = 9000 → 3 blocks
	small := gen.Path(500)     // n = 500 → 1 block
	sc := NewScratch(big.NumV, 4)
	bud := parallel.FixedBudget(4)
	for round := 0; round < 2; round++ {
		for _, g := range []*graph.CSR{big, small} {
			sources := []int32{0, int32(g.NumV / 2)}
			rows := msRows(len(sources), g.NumV)
			MSBFSOpts(bud, g, sources, rows, sc, MSOptions{})
			want := make([]int32, g.NumV)
			for i, src := range sources {
				Serial(g, src, want)
				for v := range want {
					if rows[i][v] != want[v] {
						t.Fatalf("round %d n=%d src=%d: dist[%d] = %d, want %d",
							round, g.NumV, src, v, rows[i][v], want[v])
					}
				}
			}
		}
	}
}

// TestMSBFSOptsSharesRunnerDefaults pins the option plumbing: Options.MS
// must carry the single-source α/β straight across, and the zero MSOptions
// must normalize to the shared defaults.
func TestMSBFSOptsSharesRunnerDefaults(t *testing.T) {
	ms := Options{Alpha: 7, Beta: 9}.MS()
	if ms.Alpha != 7 || ms.Beta != 9 {
		t.Fatalf("Options.MS dropped fields: %+v", ms)
	}
	def := MSOptions{}.withDefaults()
	if def.Alpha != DefaultAlpha || def.Beta != DefaultBeta {
		t.Fatalf("defaults = %+v, want α=%d β=%d", def, DefaultAlpha, DefaultBeta)
	}
}

// FuzzMSBFSDirOptEquivalence fuzzes graph family × source count × budget
// and asserts the direction-optimizing engine's distance rows are bitwise
// identical to the top-down oracle — the PR's central invariant —
// and identical across every worker budget.
func FuzzMSBFSDirOptEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(0))
	f.Add(int64(2), uint8(1), uint8(64), uint8(2))
	f.Add(int64(3), uint8(2), uint8(1), uint8(4))
	f.Add(int64(4), uint8(3), uint8(17), uint8(1))
	f.Add(int64(5), uint8(4), uint8(33), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, family, nSources, workers uint8) {
		r := rand.New(rand.NewSource(seed))
		var g *graph.CSR
		switch family % 5 {
		case 0:
			g = gen.Kron(8, 6, uint64(seed)|1)
		case 1:
			g = gen.Grid2D(10+r.Intn(60), 10+r.Intn(60))
		case 2:
			g = gen.Path(50 + r.Intn(5000))
		case 3:
			g = gen.Star(50 + r.Intn(5000))
		default:
			// Arbitrary (possibly disconnected) random graph.
			n := 10 + r.Intn(3000)
			edges := make([]graph.Edge, n+r.Intn(3*n))
			for i := range edges {
				edges[i] = graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))}
			}
			var err error
			g, err = graph.FromEdges(n, edges, graph.BuildOptions{KeepAllComponents: true})
			if err != nil || g.NumV < 2 {
				t.Skip()
			}
		}
		s := 1 + int(nSources)%64
		sources := make([]int32, s)
		for i := range sources {
			sources[i] = int32(r.Intn(g.NumV))
		}
		want, _ := msRunTopDown(g, sources, parallel.FixedBudget(1))
		budgets := []parallel.Budget{
			parallel.FixedBudget(1),
			parallel.FixedBudget(1 + int(workers)%8),
			parallel.Live(),
		}
		for _, bud := range budgets {
			got, _ := msRun(g, sources, bud, MSOptions{})
			assertRowsEqual(t, "diropt", want, got)
			gotTD, _ := msRunTopDown(g, sources, bud)
			assertRowsEqual(t, "topdown", want, gotTD)
		}
	})
}
