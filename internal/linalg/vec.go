// Package linalg provides the parallel vector and matrix kernels behind
// ParHDE's DOrtho and TripleProd phases: Level-1 style vector operations,
// a column-major dense matrix, a parallel small-dimension GEMM, and the
// fused Laplacian × dense-matrix product that never materializes the
// Laplacian (the paper's key memory optimization over prior work).
//
// Every reduction in the package runs over a fixed tiling of the row
// dimension (TileRows rows per tile, see ReduceBlocks) with the per-tile
// partial sums combined serially in ascending tile order. The tile grid
// depends only on the problem size — never on the worker count — so a
// reduction's result is bitwise identical across any worker budget,
// including the serial path, and arenas sized by ReduceBlocks can never
// be desynchronized by a GOMAXPROCS change mid-run. A parallel.Budget
// only controls how many goroutines the tiles fan out across.
package linalg

import (
	"math"
	"sync"

	"repro/internal/parallel"
)

// TileRows is the row height of one reduction tile: 4096 float64 rows are
// 32 KiB — half an L1 data cache per streamed operand — which is fine
// enough to load-balance across any realistic core count and coarse
// enough that the per-tile bookkeeping is negligible next to the tile's
// arithmetic.
const TileRows = 4096

// Dot returns xᵀy. The summation runs over the fixed row tiling with
// per-tile partials combined serially in tile order, so the result is
// bitwise identical for every worker budget.
func Dot(x, y []float64) float64 {
	checkLen(len(x), len(y))
	return dotBlocks(parallel.Live(), x, nil, y, nil)
}

// DotBudget is Dot running under an explicit worker budget, with a
// caller-provided partials buffer (capacity ≥ ReduceBlocks(n), grown
// when short), so a steady-state caller — e.g. the MGS sweep reusing one
// buffer across all its inner products — allocates nothing. The tiling
// and serial combine order are identical to Dot's, so the two produce
// bitwise-identical sums.
func DotBudget(bud parallel.Budget, x, y, partials []float64) float64 {
	checkLen(len(x), len(y))
	return dotBlocks(bud, x, nil, y, partials)
}

// DDot returns xᵀDy where D is the diagonal matrix diag(d) — the D-inner
// product used by degree-normalized orthogonalization.
func DDot(x, d, y []float64) float64 {
	checkLen(len(x), len(y))
	checkLen(len(x), len(d))
	return dotBlocks(parallel.Live(), x, d, y, nil)
}

// DDotBudget is DDot under an explicit worker budget and partials
// buffer; see DotBudget.
func DDotBudget(bud parallel.Budget, x, d, y, partials []float64) float64 {
	checkLen(len(x), len(y))
	checkLen(len(x), len(d))
	return dotBlocks(bud, x, d, y, partials)
}

// ReduceBlocks returns the number of tiles a length-n reduction is cut
// into: ⌈n/TileRows⌉ (at least 1). The tile count depends only on n, so a
// caller sizing a reusable partials arena with ReduceBlocks(n) entries is
// immune to concurrent GOMAXPROCS changes — the arena can never silently
// fall short mid-run — and the serial in-tile-order combine makes every
// reduction bitwise identical across worker budgets.
func ReduceBlocks(n int) int {
	if n <= TileRows {
		return 1
	}
	return (n + TileRows - 1) / TileRows
}

// forTiles runs body(t, lo, hi) for every tile t of the fixed [0, n)
// tiling, fanning the tiles out across min(bud.Workers(), tiles)
// goroutines; each worker owns a contiguous tile range so its memory
// access stays sequential. Callers needing an allocation-free serial path
// must branch on bud.Workers() <= 1 themselves before constructing the
// body closure.
func forTiles(bud parallel.Budget, n, tiles int, body func(t, lo, hi int)) {
	p := bud.Workers()
	if p > tiles {
		p = tiles
	}
	if p <= 1 {
		for t := 0; t < tiles; t++ {
			body(t, t*n/tiles, (t+1)*n/tiles)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			for t := w * tiles / p; t < (w+1)*tiles/p; t++ {
				body(t, t*n/tiles, (t+1)*n/tiles)
			}
		}(w)
	}
	wg.Wait()
}

// dotBlocks computes xᵀy (d == nil) or xᵀdiag(d)y over the fixed tiling.
// The serial path streams the per-tile sums into one accumulator in tile
// order — the same additions, in the same order, as the parallel arena +
// combine path — so all budgets produce identical bits, and the serial
// path needs neither arena nor closure (allocation-free).
func dotBlocks(bud parallel.Budget, x, d, y, partials []float64) float64 {
	n := len(x)
	tiles := ReduceBlocks(n)
	if tiles == 1 {
		return dotRange(x, d, y, 0, n)
	}
	if bud.Workers() <= 1 {
		var s float64
		for t := 0; t < tiles; t++ {
			s += dotRange(x, d, y, t*n/tiles, (t+1)*n/tiles)
		}
		return s
	}
	// buf is written only before the goroutines capture it: a captured
	// variable assigned after capture would be heap-boxed at function
	// entry, charging even the serial early-return path one allocation.
	var buf []float64
	if cap(partials) >= tiles {
		buf = partials[:tiles]
	} else {
		buf = make([]float64, tiles)
	}
	forTiles(bud, n, tiles, func(t, lo, hi int) {
		buf[t] = dotRange(x, d, y, lo, hi)
	})
	var s float64
	for _, v := range buf {
		s += v
	}
	return s
}

// dotRange is one tile of dotBlocks: a straight accumulation over rows
// [lo, hi).
func dotRange(x, d, y []float64, lo, hi int) float64 {
	var s float64
	if d == nil {
		for i := lo; i < hi; i++ {
			s += x[i] * y[i]
		}
		return s
	}
	for i := lo; i < hi; i++ {
		s += x[i] * d[i] * y[i]
	}
	return s
}

// Axpy computes y ← y + a·x. Like every Level-1 kernel here, the serial
// branch is written out so small or single-worker calls construct no
// escaping closure and allocate nothing.
func Axpy(a float64, x, y []float64) {
	AxpyBudget(parallel.Live(), a, x, y)
}

// AxpyBudget is Axpy under an explicit worker budget. Each element is
// written by exactly one worker, so the result is partition-independent.
func AxpyBudget(bud parallel.Budget, a float64, x, y []float64) {
	checkLen(len(x), len(y))
	if bud.Serial(len(x)) {
		for i := range x {
			y[i] += a * x[i]
		}
		return
	}
	bud.ForBlock(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += a * x[i]
		}
	})
}

// Scale computes x ← a·x.
func Scale(a float64, x []float64) {
	if parallel.Serial(len(x)) {
		for i := range x {
			x[i] *= a
		}
		return
	}
	parallel.ForBlock(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= a
		}
	})
}

// Norm2 returns ‖x‖₂.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// Fill sets every element of x to a.
func Fill(x []float64, a float64) {
	FillBudget(parallel.Live(), x, a)
}

// FillBudget is Fill under an explicit worker budget.
func FillBudget(bud parallel.Budget, x []float64, a float64) {
	if bud.Serial(len(x)) {
		for i := range x {
			x[i] = a
		}
		return
	}
	bud.ForBlock(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = a
		}
	})
}

// CopyVec copies src into dst.
func CopyVec(dst, src []float64) {
	CopyVecBudget(parallel.Live(), dst, src)
}

// CopyVecBudget is CopyVec under an explicit worker budget.
func CopyVecBudget(bud parallel.Budget, dst, src []float64) {
	checkLen(len(dst), len(src))
	if bud.Serial(len(src)) {
		copy(dst, src)
		return
	}
	bud.ForBlock(len(src), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// MinUpdateInt32 computes d[j] ← min(d[j], b[j]) elementwise over int32
// vectors — the farthest-vertex bookkeeping of the BFS phase ("BFS: Other"
// in Table 1).
func MinUpdateInt32(d, b []int32) {
	checkLen(len(d), len(b))
	if parallel.Serial(len(d)) {
		for i := range d {
			if b[i] < d[i] {
				d[i] = b[i]
			}
		}
		return
	}
	parallel.ForBlock(len(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if b[i] < d[i] {
				d[i] = b[i]
			}
		}
	})
}

// Int32ToFloat64 widens an int32 hop-distance vector into a float64 column.
func Int32ToFloat64(dst []float64, src []int32) {
	Int32ToFloat64Budget(parallel.Live(), dst, src)
}

// Int32ToFloat64Budget is Int32ToFloat64 under an explicit worker budget.
func Int32ToFloat64Budget(bud parallel.Budget, dst []float64, src []int32) {
	checkLen(len(dst), len(src))
	if bud.Serial(len(src)) {
		for i := range src {
			dst[i] = float64(src[i])
		}
		return
	}
	bud.ForBlock(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = float64(src[i])
		}
	})
}

func checkLen(a, b int) {
	if a != b {
		panic("linalg: dimension mismatch")
	}
}
