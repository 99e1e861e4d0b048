//go:build perf

package linalg

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernelbench"
	"repro/internal/parallel"
)

func randDense(n, s int, seed int64) *Dense {
	m := NewDense(n, s)
	fillRand(m, rand.New(rand.NewSource(seed)))
	return m
}

// widenFixture is the fused-widen gate's input: n random hop distances
// and the buffers the k-centers bookkeeping updates.
func widenFixture(n int, seed int64) (dst []float64, dmin, src []int32) {
	src = make([]int32, n)
	dmin = make([]int32, n)
	dst = make([]float64, n)
	r := rand.New(rand.NewSource(seed))
	for i := range src {
		src[i] = int32(r.Intn(1 << 20))
		dmin[i] = int32(1) << 30
	}
	return dst, dmin, src
}

// unfusedWiden is the three-pass sequence WidenMinArgmax replaces.
func unfusedWiden(dst []float64, dmin, src []int32) int {
	Int32ToFloat64(dst, src)
	MinUpdateInt32(dmin, src)
	best := 0
	for i, x := range dmin {
		if x > dmin[best] {
			best = i
		}
	}
	return best
}

// lsFixture is the L·S gate's input: the road analogue the benchmark's
// road-deep workload lays out, with a random s=10 subspace.
func lsFixture(bud parallel.Budget) (packed, twoPass func()) {
	road := gen.Road(512, 512, 1)
	deg := road.WeightedDegrees()
	s := randDense(road.NumV, 10, 31)
	p := NewDense(road.NumV, 10)
	srm := make([]float64, road.NumV*10)
	prm := make([]float64, road.NumV*10)
	arena := &PackArena{}
	packed = func() { LapMulDenseTiledPackedBudget(bud, road, deg, s, p, srm, arena) }
	twoPass = func() { lapMulTwoPass(bud, road, deg, s, p, srm, prm) }
	return packed, twoPass
}

// TestKernelBudgetGate measures the single-core gain of the blocked AᵀB
// over the naive oracle and of the fused widen/min/argmax over the
// three-pass sequence.
func TestKernelBudgetGate(t *testing.T) {
	gate := kernelbench.SingleCore(t)
	serial := parallel.FixedBudget(1)
	{
		n, s := 1<<16, 48
		a, b := randDense(n, s, 1), randDense(n, s, 2)
		c := NewDense(s, s)
		gate.Check("atb_blocked_vs_naive", kernelbench.Speedup(5,
			func() { atbNaive(serial, a, b, c, nil) },
			func() { AtBBudget(serial, a, b, c, nil) }))
	}
	{
		dst, dmin, src := widenFixture(1<<20, 5)
		gate.Check("fused_widen_vs_unfused", kernelbench.Speedup(5,
			func() { unfusedWiden(dst, dmin, src) },
			func() { WidenMinArgmaxBudget(serial, dst, dmin, src, nil, nil) }))
	}
}

// TestParallelEfficiencyGate measures multi-worker speedups: AᵀB and the
// fused widen against their own 1-worker runs, and the packed L·S
// against the two-pass oracle at the same worker count — the pass it
// saves is an n·s·16-byte DRAM round trip, which pays once workers
// contend for bandwidth.
func TestParallelEfficiencyGate(t *testing.T) {
	gate := kernelbench.Parallel(t)
	serial := parallel.FixedBudget(1)
	par := parallel.FixedBudget(gate.Workers())
	{
		n, s := 1<<20, 48
		a, b := randDense(n, s, 11), randDense(n, s, 12)
		partials := make([]float64, ReduceBlocks(n)*s*s)
		gate.Check("atb_parallel", kernelbench.Speedup(5,
			func() { AtBBudget(serial, a, b, nil, partials) },
			func() { AtBBudget(par, a, b, nil, partials) }))
	}
	{
		n := 1 << 22
		dst, dmin, src := widenFixture(n, 15)
		tiles := ReduceBlocks(n)
		idxs, vals := make([]int, tiles), make([]int32, tiles)
		gate.Check("fused_widen_parallel", kernelbench.Speedup(5,
			func() { WidenMinArgmaxBudget(serial, dst, dmin, src, idxs, vals) },
			func() { WidenMinArgmaxBudget(par, dst, dmin, src, idxs, vals) }))
	}
	{
		packed, twoPass := lsFixture(par)
		gate.Check("ls_packed", kernelbench.Speedup(9, twoPass, packed))
	}
}

// BenchmarkAtBBlocked / BenchmarkAtBNaive are the raw microbenchmarks
// behind atb_blocked_vs_naive; run with
// go test -tags perf -run xxx -bench AtB ./internal/linalg/.
func BenchmarkAtBBlocked(b *testing.B) { benchmarkAtB(b, AtBBudget) }

func BenchmarkAtBNaive(b *testing.B) { benchmarkAtB(b, atbNaive) }

func benchmarkAtB(b *testing.B, atb func(parallel.Budget, *Dense, *Dense, *Dense, []float64) *Dense) {
	n, s := 1<<16, 48
	x, y := randDense(n, s, 1), randDense(n, s, 2)
	c := NewDense(s, s)
	b.SetBytes(int64(2 * n * s * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atb(parallel.Live(), x, y, c, nil)
	}
}

// BenchmarkLSPacked / BenchmarkLSTwoPass are the raw microbenchmarks
// behind ls_packed.
func BenchmarkLSPacked(b *testing.B) {
	packed, _ := lsFixture(parallel.Live())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed()
	}
}

func BenchmarkLSTwoPass(b *testing.B) {
	_, twoPass := lsFixture(parallel.Live())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		twoPass()
	}
}

func BenchmarkWidenMinArgmaxFused(b *testing.B) {
	dst, dmin, src := widenFixture(1<<20, 5)
	b.SetBytes(int64(len(src) * (4 + 4 + 8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WidenMinArgmax(dst, dmin, src)
	}
}

func BenchmarkWidenMinArgmaxUnfused(b *testing.B) {
	dst, dmin, src := widenFixture(1<<20, 5)
	b.SetBytes(int64(len(src) * (4 + 4 + 8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unfusedWiden(dst, dmin, src)
	}
}
