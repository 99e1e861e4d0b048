package core

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ortho"
	"repro/internal/pivot"
	"repro/internal/workspace"
)

// propertyGraphs is the random-graph family the reuse property is checked
// over: regular and irregular degree distributions, low and high diameter.
func propertyGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"grid":     gen.Grid2D(17, 23),
		"mesh3d":   gen.Mesh3D(7, 8, 9),
		"smallwld": gen.WattsStrogatz(700, 6, 0.1, 42),
		"scalefr":  gen.BarabasiAlbert(600, 3, 99),
	}
}

// TestWorkspaceReuseBitIdentical is the workspace's correctness
// property: a run through a dirtied, reused workspace must be
// bit-identical to a fresh-allocation run — same coordinates, same
// pivots, same kept columns — across graph families, subspace widths,
// and every pipeline configuration that consumes workspace buffers. The
// tiled and columnwise variants also hold the workspace run's
// coordinates to the layout recomputed with the two-pass tiled and the
// column-wise L·S oracles.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
		ls   lsOracle // when set, the coordinates must also equal this oracle's layout
	}{
		{"decoupled-mgs", Options{}, nil},
		{"coupled", Options{Coupled: true}, nil},
		{"cgs", Options{Ortho: ortho.CGS}, nil},
		{"plain-ortho", Options{PlainOrtho: true}, nil},
		{"tiled", Options{}, lsTwoPass},
		{"columnwise", Options{}, lsColumnwise},
		{"random-pivots", Options{Pivots: pivot.Random}, nil},
		{"random-ms-pivots", Options{Pivots: pivot.RandomMS}, nil},
	}
	ws := workspace.New()
	for _, s := range []int{4, 10, 24} {
		for gname, g := range propertyGraphs() {
			for _, v := range variants {
				t.Run(fmt.Sprintf("s%d/%s/%s", s, gname, v.name), func(t *testing.T) {
					opt := v.opt
					opt.Subspace = s
					opt.Seed = uint64(s) * 31
					fresh, frep, err := ParHDE(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					// The workspace arrives dirty: it holds whatever the
					// previous subtest (different graph, width, and
					// configuration) left behind.
					opt.Workspace = ws
					got, grep, err := ParHDE(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Coords.Rows != fresh.Coords.Rows || got.Coords.Cols != fresh.Coords.Cols {
						t.Fatalf("shape %dx%d, fresh %dx%d", got.Coords.Rows, got.Coords.Cols, fresh.Coords.Rows, fresh.Coords.Cols)
					}
					for i := range fresh.Coords.Data {
						if got.Coords.Data[i] != fresh.Coords.Data[i] {
							t.Fatalf("coord %d = %v, fresh run has %v", i, got.Coords.Data[i], fresh.Coords.Data[i])
						}
					}
					if len(grep.Sources) != len(frep.Sources) {
						t.Fatalf("%d sources, fresh %d", len(grep.Sources), len(frep.Sources))
					}
					for i := range frep.Sources {
						if grep.Sources[i] != frep.Sources[i] {
							t.Fatalf("source %d = %d, fresh run picked %d", i, grep.Sources[i], frep.Sources[i])
						}
					}
					if grep.KeptColumns != frep.KeptColumns || grep.DroppedColumns != frep.DroppedColumns {
						t.Fatalf("kept/dropped %d/%d, fresh %d/%d",
							grep.KeptColumns, grep.DroppedColumns, frep.KeptColumns, frep.DroppedColumns)
					}
					if v.ls != nil {
						assertCoordsEqual(t, "workspace run vs oracle", got, oracleLayout(t, g, opt, v.ls))
					}
				})
			}
		}
	}
}

// allocBudget mirrors perf/alloc_budget.json: the CI gate over
// steady-state allocation behavior.
type allocBudget struct {
	Comment     string `json:"comment"`
	SteadyState map[string]struct {
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  uint64  `json:"bytes_per_op"`
	} `json:"steady_state"`
}

func loadBudget(t *testing.T) allocBudget {
	t.Helper()
	b, err := os.ReadFile("../../perf/alloc_budget.json")
	if err != nil {
		t.Fatalf("reading allocation budget: %v", err)
	}
	var budget allocBudget
	if err := json.Unmarshal(b, &budget); err != nil {
		t.Fatalf("decoding allocation budget: %v", err)
	}
	return budget
}

// TestSteadyStateAllocBudget asserts the warmed-workspace hot path stays
// within the checked-in allocation budget. It pins GOMAXPROCS to 1 so the
// measurement is deterministic. The grid cases run at the live budget, so
// the parallel primitives take their serial fast paths and what remains is
// the small shape-independent constant (result headers, the s×s
// eigensolve) the budget file pins down. parhde_road_2w pins 2 workers on
// a road graph past 2·MinGrain, so every phase's fan-outs are live: its
// budget prices one layout's fan-outs and catches a return to per-level
// fan-out in the BFS, which costs ~7 allocations on each of its ~1,960
// levels.
func TestSteadyStateAllocBudget(t *testing.T) {
	budget := loadBudget(t)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	grid := gen.Grid2D(24, 30) // n = 720 < MinGrain·2: serial primitives
	road := gen.Road(64, 64, 1)
	for name, c := range map[string]struct {
		g   *graph.CSR
		opt Options
	}{
		"parhde_decoupled": {grid, Options{Subspace: 10, Seed: 3, SkipConnectivityCheck: true}},
		"parhde_coupled":   {grid, Options{Subspace: 10, Seed: 3, SkipConnectivityCheck: true, Coupled: true}},
		"parhde_random_ms": {grid, Options{Subspace: 10, Seed: 3, SkipConnectivityCheck: true, Pivots: pivot.RandomMS}},
		"parhde_road_2w":   {road, Options{Subspace: 10, Seed: 3, SkipConnectivityCheck: true, Workers: 2}},
	} {
		g, opt := c.g, c.opt
		t.Run(name, func(t *testing.T) {
			want, ok := budget.SteadyState[name]
			if !ok {
				t.Fatalf("no budget entry for %q", name)
			}
			ws := workspace.New()
			opt.Workspace = ws
			run := func() {
				if _, _, err := ParHDE(g, opt); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the workspace
			allocs := testing.AllocsPerRun(20, run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const reps = 20
			for i := 0; i < reps; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / reps
			t.Logf("%s: %.1f allocs/op, %d bytes/op (budget %.0f allocs, %d bytes)",
				name, allocs, bytesPerOp, want.AllocsPerOp, want.BytesPerOp)
			if allocs > want.AllocsPerOp {
				t.Errorf("steady state allocates %.1f objects/op, budget is %.0f — if the regression is intentional, raise perf/alloc_budget.json", allocs, want.AllocsPerOp)
			}
			if bytesPerOp > want.BytesPerOp {
				t.Errorf("steady state allocates %d bytes/op, budget is %d — if the regression is intentional, raise perf/alloc_budget.json", bytesPerOp, want.BytesPerOp)
			}
		})
	}
}

// TestTrackAllocsReportsPhases checks the per-phase allocation capture
// used by the hdebench alloc snapshots.
func TestTrackAllocsReportsPhases(t *testing.T) {
	g := gen.Grid2D(12, 12)
	_, rep, err := ParHDE(g, Options{Subspace: 6, Seed: 1, TrackAllocs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PhaseAllocs) == 0 {
		t.Fatal("TrackAllocs produced no PhaseAllocs")
	}
	seen := map[string]bool{}
	for _, pa := range rep.PhaseAllocs {
		seen[pa.Name] = true
	}
	for _, name := range []string{"bfs_traversal", "dortho", "ls", "gemm", "project"} {
		if !seen[name] {
			t.Errorf("phase %q missing from PhaseAllocs (have %v)", name, rep.PhaseAllocs)
		}
	}
	_, rep, err = ParHDE(g, Options{Subspace: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PhaseAllocs != nil {
		t.Fatal("PhaseAllocs populated without TrackAllocs")
	}
}

func benchmarkParHDE(b *testing.B, ws *workspace.Workspace) {
	g := gen.Grid2D(100, 100)
	opt := Options{Subspace: 10, Seed: 1, SkipConnectivityCheck: true, Workspace: ws}
	if _, _, err := ParHDE(g, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParHDE(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParHDEFresh allocates every buffer per run (the pre-workspace
// behavior); compare its allocs/op against BenchmarkParHDEWorkspace.
func BenchmarkParHDEFresh(b *testing.B) { benchmarkParHDE(b, nil) }

// BenchmarkParHDEWorkspace reuses one warmed workspace across all runs —
// the steady state of a job-engine worker.
func BenchmarkParHDEWorkspace(b *testing.B) { benchmarkParHDE(b, workspace.New()) }
