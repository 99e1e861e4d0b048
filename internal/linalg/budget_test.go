package linalg

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
)

// withProcs runs f under the given GOMAXPROCS so multi-goroutine fan-out
// paths execute even on a single-core host.
func withProcs(p int, f func()) {
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// budgets under test: serial, two fixed parallel budgets, and the live
// budget (which follows the GOMAXPROCS(4) pin).
func testBudgets() []parallel.Budget {
	return []parallel.Budget{
		parallel.FixedBudget(1),
		parallel.FixedBudget(2),
		parallel.FixedBudget(4),
		parallel.Live(),
	}
}

// TestDotBudgetInvariance: the dot reductions are bitwise identical for
// every worker budget, including the allocation-free serial path.
func TestDotBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	withProcs(4, func() {
		for _, n := range []int{1, 100, TileRows, TileRows + 1, 3*TileRows + 17, 20000} {
			x, y, d := randVec(n, rng), randVec(n, rng), randVec(n, rng)
			partials := make([]float64, ReduceBlocks(n))
			ref := DotBudget(parallel.FixedBudget(1), x, y, nil)
			refD := DDotBudget(parallel.FixedBudget(1), x, d, y, nil)
			for _, bud := range testBudgets() {
				if got := DotBudget(bud, x, y, partials); got != ref {
					t.Fatalf("n=%d workers=%d: Dot %v != %v", n, bud.Workers(), got, ref)
				}
				if got := DDotBudget(bud, x, d, y, partials); got != refD {
					t.Fatalf("n=%d workers=%d: DDot %v != %v", n, bud.Workers(), got, refD)
				}
			}
			if got := Dot(x, y); got != ref {
				t.Fatalf("n=%d: live Dot %v != %v", n, got, ref)
			}
		}
	})
}

// TestAtBBudgetInvariance: the blocked AᵀB product is bitwise identical
// across worker budgets, and reusing a pooled partials arena changes
// nothing.
func TestAtBBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	withProcs(4, func() {
		for _, n := range []int{64, TileRows, 3*TileRows + 5} {
			s, u := 7, 5
			a, b := NewDense(n, s), NewDense(n, u)
			copy(a.Data, randVec(n*s, rng))
			copy(b.Data, randVec(n*u, rng))
			partials := make([]float64, ReduceBlocks(n)*s*u)
			ref := AtBBudget(parallel.FixedBudget(1), a, b, nil, nil)
			for _, bud := range testBudgets() {
				got := AtBBudget(bud, a, b, nil, partials)
				for k := range ref.Data {
					if got.Data[k] != ref.Data[k] {
						t.Fatalf("n=%d workers=%d: AtB[%d] %v != %v", n, bud.Workers(), k, got.Data[k], ref.Data[k])
					}
				}
				naive := atbNaive(bud, a, b, nil, partials)
				for k := range ref.Data {
					if naive.Data[k] != ref.Data[k] {
						t.Fatalf("n=%d workers=%d: naive[%d] %v != %v", n, bud.Workers(), k, naive.Data[k], ref.Data[k])
					}
				}
			}
		}
	})
}

// TestDDotPanelBudgetInvariance: the fused panel multi-dot matches across
// budgets bitwise for panel widths around PanelCols.
func TestDDotPanelBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	withProcs(4, func() {
		n := 2*TileRows + 31
		work, d := randVec(n, rng), randVec(n, rng)
		for _, k := range []int{1, PanelCols - 1, PanelCols, PanelCols + 3, 2*PanelCols + 1} {
			cols := make([][]float64, k)
			for j := range cols {
				cols[j] = randVec(n, rng)
			}
			partials := make([]float64, ReduceBlocks(n)*k)
			ref := DDotPanelBudget(parallel.FixedBudget(1), cols, work, d, nil, nil)
			refPlain := DDotPanelBudget(parallel.FixedBudget(1), cols, work, nil, nil, nil)
			for _, bud := range testBudgets() {
				got := DDotPanelBudget(bud, cols, work, d, nil, partials)
				for j := range ref {
					if got[j] != ref[j] {
						t.Fatalf("k=%d workers=%d: DDotPanel[%d] %v != %v", k, bud.Workers(), j, got[j], ref[j])
					}
				}
				got = DDotPanelBudget(bud, cols, work, nil, nil, partials)
				for j := range refPlain {
					if got[j] != refPlain[j] {
						t.Fatalf("k=%d workers=%d: plain DDotPanel[%d] %v != %v", k, bud.Workers(), j, got[j], refPlain[j])
					}
				}
			}
		}
	})
}

// TestWidenMinArgmaxBudgetInvariance: the fused widen/min/argmax returns
// the same index and leaves identical dst/dmin for every budget,
// including ties (constant vectors) and pooled arena reuse.
func TestWidenMinArgmaxBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	withProcs(4, func() {
		for _, n := range []int{1, 513, TileRows, 3*TileRows + 9} {
			for trial := 0; trial < 3; trial++ {
				src := make([]int32, n)
				base := make([]int32, n)
				for i := range src {
					src[i] = int32(rng.Intn(64))
					base[i] = int32(rng.Intn(64))
				}
				if trial == 2 { // all-equal: exercises first-max tie-breaking
					for i := range src {
						src[i], base[i] = 7, 7
					}
				}
				tiles := ReduceBlocks(n)
				idxs, vals := make([]int, tiles), make([]int32, tiles)
				refDst := make([]float64, n)
				refMin := append([]int32(nil), base...)
				refIdx := WidenMinArgmaxBudget(parallel.FixedBudget(1), refDst, refMin, src, nil, nil)
				for _, bud := range testBudgets() {
					dst := make([]float64, n)
					dmin := append([]int32(nil), base...)
					gotIdx := WidenMinArgmaxBudget(bud, dst, dmin, src, idxs, vals)
					if gotIdx != refIdx {
						t.Fatalf("n=%d workers=%d trial=%d: argmax %d != %d", n, bud.Workers(), trial, gotIdx, refIdx)
					}
					for i := range dst {
						if dst[i] != refDst[i] || dmin[i] != refMin[i] {
							t.Fatalf("n=%d workers=%d: element %d diverged", n, bud.Workers(), i)
						}
					}
				}
			}
		}
	})
}

// TestScaledCopyDDotBudgetInvariance: the fused keep-step kernel is
// bitwise identical across budgets for both the D-weighted and plain
// variants.
func TestScaledCopyDDotBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	withProcs(4, func() {
		for _, n := range []int{100, TileRows + 1, 2*TileRows + 77} {
			src, d := randVec(n, rng), randVec(n, rng)
			partials := make([]float64, ReduceBlocks(n))
			refDst := make([]float64, n)
			ref := ScaledCopyDDotBudget(parallel.FixedBudget(1), refDst, src, d, 1.25, nil)
			refPlain := ScaledCopyDDotBudget(parallel.FixedBudget(1), refDst, src, nil, 1.25, nil)
			for _, bud := range testBudgets() {
				dst := make([]float64, n)
				if got := ScaledCopyDDotBudget(bud, dst, src, d, 1.25, partials); got != ref {
					t.Fatalf("n=%d workers=%d: ScaledCopyDDot %v != %v", n, bud.Workers(), got, ref)
				}
				for i := range dst {
					if dst[i] != refDst[i] {
						t.Fatalf("n=%d workers=%d: dst[%d] diverged", n, bud.Workers(), i)
					}
				}
				if got := ScaledCopyDDotBudget(bud, dst, src, nil, 1.25, partials); got != refPlain {
					t.Fatalf("n=%d workers=%d: plain ScaledCopyDDot %v != %v", n, bud.Workers(), got, refPlain)
				}
			}
		}
	})
}

// TestLapMulBudgetInvariance: the packed L·S kernel and the column-wise
// oracle agree bitwise with each other and across budgets.
func TestLapMulBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.Path(2*TileRows + 13)
	n := g.NumV
	deg := g.WeightedDegrees()
	withProcs(4, func() {
		s := NewDense(n, 6)
		copy(s.Data, randVec(n*6, rng))
		ref := lapMulColumnwise(parallel.FixedBudget(1), g, deg, s)
		for _, bud := range testBudgets() {
			got := lapMulColumnwise(bud, g, deg, s)
			packed := LapMulDenseTiledPackedBudget(bud, g, deg, s, nil, nil, nil)
			for k := range ref.Data {
				if got.Data[k] != ref.Data[k] {
					t.Fatalf("workers=%d: column-wise L·S[%d] diverged", bud.Workers(), k)
				}
				if packed.Data[k] != ref.Data[k] {
					t.Fatalf("workers=%d: packed L·S[%d] diverged", bud.Workers(), k)
				}
			}
		}
	})
}
