package linalg

import (
	"repro/internal/parallel"
)

// Fused elementwise kernels. The BFS-phase bookkeeping and the DOrtho
// column hand-off were built from single-purpose Level-1 passes (widen,
// min-update, argmax, copy, scale), each streaming the same n-length
// vectors again; at layout scale those phases are pure memory traffic, so
// the fused forms here do the combined job in one pass.

// WidenMinArgmax fuses the per-pivot bookkeeping of the k-centers BFS
// loop: dst[i] = float64(src[i]), dmin[i] = min(dmin[i], src[i]), and the
// return value is the index of the maximum of the updated dmin (ties
// toward the smallest index, matching parallel.ArgmaxInt32). One pass
// over memory instead of the three the unfused widen → min-update →
// argmax sequence performs, with identical results.
func WidenMinArgmax(dst []float64, dmin, src []int32) int {
	return WidenMinArgmaxBudget(parallel.Live(), dst, dmin, src, nil, nil)
}

// WidenMinArgmaxBudget is WidenMinArgmax under an explicit worker budget,
// with idxs/vals as the per-tile argmax arenas (capacity ≥
// ReduceBlocks(n) each, allocated when short); a pooled caller passes
// both so the steady-state call allocates nothing. The elementwise writes
// are partition-independent, and the cross-tile first-maximum combine
// matches the serial first-maximum scan, so every budget returns the
// same index.
func WidenMinArgmaxBudget(bud parallel.Budget, dst []float64, dmin, src []int32, idxs []int, vals []int32) int {
	checkLen(len(dst), len(src))
	checkLen(len(dmin), len(src))
	n := len(src)
	tiles := ReduceBlocks(n)
	if tiles == 1 || bud.Workers() <= 1 {
		best, bv := 0, int32(-1<<31)
		for i := 0; i < n; i++ {
			v := src[i]
			dst[i] = float64(v)
			if v < dmin[i] {
				dmin[i] = v
			}
			if dmin[i] > bv {
				best, bv = i, dmin[i]
			}
		}
		return best
	}
	var ib []int
	if cap(idxs) >= tiles {
		ib = idxs[:tiles]
	} else {
		ib = make([]int, tiles)
	}
	var vb []int32
	if cap(vals) >= tiles {
		vb = vals[:tiles]
	} else {
		vb = make([]int32, tiles)
	}
	forTiles(bud, n, tiles, func(t, lo, hi int) {
		best, bv := lo, int32(-1<<31)
		for i := lo; i < hi; i++ {
			v := src[i]
			dst[i] = float64(v)
			if v < dmin[i] {
				dmin[i] = v
			}
			if dmin[i] > bv {
				best, bv = i, dmin[i]
			}
		}
		ib[t], vb[t] = best, bv
	})
	best, bv := ib[0], vb[0]
	for t := 1; t < tiles; t++ {
		if vb[t] > bv {
			best, bv = ib[t], vb[t]
		}
	}
	return best
}

// ScaledCopyBudget computes dst[i] = a·src[i] in one pass — the fused
// form of CopyVec followed by Scale. Each element is written by one
// worker, so results are partition-independent.
func ScaledCopyBudget(bud parallel.Budget, dst, src []float64, a float64) {
	checkLen(len(dst), len(src))
	if bud.Serial(len(src)) {
		for i, v := range src {
			dst[i] = a * v
		}
		return
	}
	bud.ForBlock(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a * src[i]
		}
	})
}

// ScaledCopyDDotBudget computes dst[i] = a·src[i] and returns
// dstᵀdiag(d)dst (plain dstᵀdst when d is nil) in the same pass: the
// fused form of the DOrtho keep step, which would otherwise copy, scale,
// and then re-stream the column a third time for its D-norm. partials is
// the reduction buffer (capacity ≥ ReduceBlocks(n), grown when short);
// the fixed tiling and serial in-tile-order combine match
// DotBudget/DDotBudget, so the sum is bitwise identical for every worker
// budget.
func ScaledCopyDDotBudget(bud parallel.Budget, dst, src, d []float64, a float64, partials []float64) float64 {
	checkLen(len(dst), len(src))
	if d != nil {
		checkLen(len(d), len(src))
	}
	n := len(src)
	tiles := ReduceBlocks(n)
	if tiles == 1 {
		return scaledCopyDDotRange(dst, src, d, a, 0, n)
	}
	if bud.Workers() <= 1 {
		var s float64
		for t := 0; t < tiles; t++ {
			s += scaledCopyDDotRange(dst, src, d, a, t*n/tiles, (t+1)*n/tiles)
		}
		return s
	}
	var buf []float64
	if cap(partials) >= tiles {
		buf = partials[:tiles]
	} else {
		buf = make([]float64, tiles)
	}
	forTiles(bud, n, tiles, func(t, lo, hi int) {
		buf[t] = scaledCopyDDotRange(dst, src, d, a, lo, hi)
	})
	var s float64
	for _, v := range buf {
		s += v
	}
	return s
}

// scaledCopyDDotRange is one tile of ScaledCopyDDotBudget.
func scaledCopyDDotRange(dst, src, d []float64, a float64, lo, hi int) float64 {
	var s float64
	if d == nil {
		for i := lo; i < hi; i++ {
			v := a * src[i]
			dst[i] = v
			s += v * v
		}
		return s
	}
	for i := lo; i < hi; i++ {
		v := a * src[i]
		dst[i] = v
		s += v * d[i] * v
	}
	return s
}
