//go:build perf

package bfs

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernelbench"
	"repro/internal/parallel"
)

// msbfsFixture builds the MSBFS gate/bench inputs: a kron graph, one full
// 64-source batch, its distance rows, and a warm traversal scratch.
func msbfsFixture(scale, factor int) (*graph.CSR, []int32, [][]int32, *Scratch) {
	g := gen.Kron(scale, factor, 102)
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32((i * 997) % g.NumV)
	}
	rows := make([][]int32, 64)
	arena := make([]int32, 64*g.NumV)
	for i := range rows {
		rows[i] = arena[i*g.NumV : (i+1)*g.NumV]
	}
	return g, sources, rows, NewScratch(g.NumV, runtime.GOMAXPROCS(0))
}

// TestKernelBudgetGate measures the direction-optimizing tiled MSBFS
// against the top-down oracle on the paper's headline kron shape, one
// full 64-source batch on one core: bottom-up must win on a skewed
// low-diameter graph without any parallelism — the γ < 1 work reduction.
func TestKernelBudgetGate(t *testing.T) {
	gate := kernelbench.SingleCore(t)
	g, sources, rows, sc := msbfsFixture(18, 16)
	bud := parallel.FixedBudget(1)
	gate.Check("msbfs_diropt_vs_topdown", kernelbench.Speedup(5,
		func() { msbfsTopDown(bud, g, sources, rows, sc) },
		func() { MSBFSOpts(bud, g, sources, rows, sc, MSOptions{}) }))
}

// TestParallelEfficiencyGate: the blocked bitmap passes must scale when
// workers own disjoint vertex-range blocks (bottom-up writes are
// CAS-free precisely because of that ownership).
func TestParallelEfficiencyGate(t *testing.T) {
	gate := kernelbench.Parallel(t)
	g, sources, rows, sc := msbfsFixture(18, 16)
	serial, par := parallel.FixedBudget(1), parallel.FixedBudget(gate.Workers())
	gate.Check("msbfs_tiled", kernelbench.Speedup(5,
		func() { MSBFSOpts(serial, g, sources, rows, sc, MSOptions{}) },
		func() { MSBFSOpts(par, g, sources, rows, sc, MSOptions{}) }))
}

// BenchmarkMSBFSDirOpt / BenchmarkMSBFSTopDown are the raw
// microbenchmarks behind the msbfs_diropt_vs_topdown gate ratio; run with
// go test -tags perf -run xxx -bench MSBFS ./internal/bfs/.
func BenchmarkMSBFSDirOpt(b *testing.B) {
	benchmarkMSBFS(b, func(bud parallel.Budget, g *graph.CSR, sources []int32, rows [][]int32, sc *Scratch) {
		MSBFSOpts(bud, g, sources, rows, sc, MSOptions{})
	})
}

func BenchmarkMSBFSTopDown(b *testing.B) {
	benchmarkMSBFS(b, func(bud parallel.Budget, g *graph.CSR, sources []int32, rows [][]int32, sc *Scratch) {
		msbfsTopDown(bud, g, sources, rows, sc)
	})
}

func benchmarkMSBFS(b *testing.B, run func(parallel.Budget, *graph.CSR, []int32, [][]int32, *Scratch)) {
	g, sources, rows, sc := msbfsFixture(18, 16)
	bud := parallel.FixedBudget(runtime.GOMAXPROCS(0))
	b.SetBytes(int64(len(g.Adj) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(bud, g, sources, rows, sc)
	}
}
