package linalg

import (
	"repro/internal/parallel"
)

// Panel kernels for block Gram-Schmidt: a fused multi-dot that computes
// the inner products of one vector against a panel of columns in a single
// pass over memory, and the fused multi-axpy applying the combined
// update. The Level-1 formulation streams the work vector (and d) twice
// per kept column; these stream them twice per panel of PanelCols
// columns, and every panel column exactly as often as before — the
// remaining bandwidth is the irreducible column traffic of Gram-Schmidt.

// PanelCols is the column width of the fused panel kernels: eight
// accumulators fit the register budget of the unrolled inner loops, and
// wider panels would only re-stream columns that no longer fit cache.
const PanelCols = 8

// DDotPanelBudget appends ⟨cols[j], work⟩_D (plain inner products when
// d is nil) for every column to out and returns it. The row dimension
// runs over the fixed TileRows tiling with per-tile partials combined
// serially in tile order — exactly like DotBudget — so results are
// bitwise identical for every worker budget. partials is the per-tile
// arena (capacity ≥ ReduceBlocks(n)·len(cols), grown when short); out
// should have spare capacity for len(cols) more entries to keep the call
// allocation-free.
func DDotPanelBudget(bud parallel.Budget, cols [][]float64, work, d []float64, out, partials []float64) []float64 {
	k := len(cols)
	if k == 0 {
		return out
	}
	n := len(work)
	base := len(out)
	for i := 0; i < k; i++ {
		out = append(out, 0)
	}
	tiles := ReduceBlocks(n)
	if tiles == 1 {
		dDotPanelRange(cols, work, d, 0, n, out[base:])
		return out
	}
	var buf []float64
	if cap(partials) >= tiles*k {
		buf = partials[:tiles*k]
	} else {
		buf = make([]float64, tiles*k)
	}
	if bud.Workers() <= 1 {
		for t := 0; t < tiles; t++ {
			dDotPanelRange(cols, work, d, t*n/tiles, (t+1)*n/tiles, buf[t*k:(t+1)*k])
		}
	} else {
		forTiles(bud, n, tiles, func(t, lo, hi int) {
			dDotPanelRange(cols, work, d, lo, hi, buf[t*k:(t+1)*k])
		})
	}
	for j := 0; j < k; j++ {
		var s float64
		for t := 0; t < tiles; t++ {
			s += buf[t*k+j]
		}
		out[base+j] = s
	}
	return out
}

// dDotPanelRange fills acc[j] = ⟨cols[j], work⟩_D over rows [lo, hi),
// walking the columns in PanelCols-wide chunks so each chunk is one
// fused pass.
func dDotPanelRange(cols [][]float64, work, d []float64, lo, hi int, acc []float64) {
	for c0 := 0; c0 < len(cols); c0 += PanelCols {
		c1 := c0 + PanelCols
		if c1 > len(cols) {
			c1 = len(cols)
		}
		dDotChunkRange(cols[c0:c1], work, d, lo, hi, acc[c0:c1])
	}
}

// dDotChunkRange is one fused pass computing up to PanelCols inner
// products; the full-width chunk keeps all eight accumulators in
// registers.
func dDotChunkRange(cols [][]float64, work, d []float64, lo, hi int, acc []float64) {
	if len(cols) == PanelCols {
		c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
		c4, c5, c6, c7 := cols[4], cols[5], cols[6], cols[7]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		if d == nil {
			for r := lo; r < hi; r++ {
				w := work[r]
				a0 += c0[r] * w
				a1 += c1[r] * w
				a2 += c2[r] * w
				a3 += c3[r] * w
				a4 += c4[r] * w
				a5 += c5[r] * w
				a6 += c6[r] * w
				a7 += c7[r] * w
			}
		} else {
			for r := lo; r < hi; r++ {
				w := d[r] * work[r]
				a0 += c0[r] * w
				a1 += c1[r] * w
				a2 += c2[r] * w
				a3 += c3[r] * w
				a4 += c4[r] * w
				a5 += c5[r] * w
				a6 += c6[r] * w
				a7 += c7[r] * w
			}
		}
		acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
		acc[4], acc[5], acc[6], acc[7] = a4, a5, a6, a7
		return
	}
	// Narrow tail chunk: accumulate row-outer with a j-inner loop.
	for j := range acc {
		acc[j] = 0
	}
	if d == nil {
		for r := lo; r < hi; r++ {
			w := work[r]
			for j, col := range cols {
				acc[j] += col[r] * w
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		w := d[r] * work[r]
		for j, col := range cols {
			acc[j] += col[r] * w
		}
	}
}

// SubtractScaledBudget computes work ← work − Σ_j coeffs[j]·cols[j] with
// one fused pass per PanelCols-wide chunk: the multi-axpy update of
// block Gram-Schmidt (and the Level-2 "gemv" update of CGS). Each
// element of work is updated by exactly one worker, and the per-element
// combination order is fixed by the chunk walk, so results are
// deterministic regardless of the row partition.
func SubtractScaledBudget(bud parallel.Budget, work []float64, cols [][]float64, coeffs []float64) {
	if len(cols) != len(coeffs) {
		panic("linalg: SubtractScaled column/coefficient mismatch")
	}
	if len(cols) == 0 {
		return
	}
	if bud.Serial(len(work)) {
		subScaledRange(work, cols, coeffs, 0, len(work))
		return
	}
	bud.ForBlock(len(work), func(lo, hi int) {
		subScaledRange(work, cols, coeffs, lo, hi)
	})
}

// subScaledRange applies the multi-axpy over rows [lo, hi) chunk by
// chunk.
func subScaledRange(work []float64, cols [][]float64, coeffs []float64, lo, hi int) {
	for c0 := 0; c0 < len(cols); c0 += PanelCols {
		c1 := c0 + PanelCols
		if c1 > len(cols) {
			c1 = len(cols)
		}
		subChunkRange(work, cols[c0:c1], coeffs[c0:c1], lo, hi)
	}
}

// subChunkRange subtracts one chunk's combination from work over rows
// [lo, hi).
func subChunkRange(work []float64, cols [][]float64, f []float64, lo, hi int) {
	if len(cols) == PanelCols {
		c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
		c4, c5, c6, c7 := cols[4], cols[5], cols[6], cols[7]
		f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
		f4, f5, f6, f7 := f[4], f[5], f[6], f[7]
		for r := lo; r < hi; r++ {
			work[r] -= f0*c0[r] + f1*c1[r] + f2*c2[r] + f3*c3[r] +
				f4*c4[r] + f5*c5[r] + f6*c6[r] + f7*c7[r]
		}
		return
	}
	for r := lo; r < hi; r++ {
		w := work[r]
		for j, col := range cols {
			w -= f[j] * col[r]
		}
		work[r] = w
	}
}
