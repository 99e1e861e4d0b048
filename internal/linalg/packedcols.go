package linalg

import (
	"repro/internal/parallel"
)

// PackedCols is a tile-major store for the kept columns of a panel
// Gram-Schmidt sweep. A flat arena keeps each kept column n·8 bytes from
// the next — a power of two at layout sizes, so the eight columns of a
// panel chunk collide in the same cache sets and each projection pass
// re-reads them from DRAM. Here every column is split over the fixed ReduceBlocks(n) reduction
// tiles and stored tile-major: tile t holds all columns' [t·n/tiles,
// (t+1)·n/tiles) rows contiguously, each column slot padded by
// packColPad floats so adjacent slots sit a non-power-of-two stride
// apart and panel chunks stream conflict-free. A column is packed once
// when it is kept (AppendScaledDDotBudget — the same fused write as
// ScaledCopyDDotBudget) and then re-read in packed form by every later
// projection, so packing costs nothing extra. All three kernels mirror
// their flat counterparts' per-element accumulation orders exactly, so
// the packed sweep is bitwise identical to the flat one for every
// worker budget.
type PackedCols struct {
	buf     []float64
	n       int // rows per column
	tiles   int // ReduceBlocks(n)
	stride  int // floats per column slot: ⌈n/tiles⌉ + packColPad
	capCols int // column slots per tile
	k       int // columns currently stored
}

// packColPad is the padding appended to each column slot: one cache line
// of floats, enough to stagger the power-of-two tile widths the layout
// sizes produce (4096-row tiles → 32 KiB slots that would otherwise all
// map to the same L1 sets).
const packColPad = 8

// Ensure shapes the store for n-row columns with room for capCols of
// them, growing the backing storage only when the footprint exceeds its
// capacity, and resets the column count to zero.
func (pc *PackedCols) Ensure(n, capCols int) {
	tiles := ReduceBlocks(n)
	stride := (n+tiles-1)/tiles + packColPad
	need := tiles * capCols * stride
	if cap(pc.buf) < need {
		pc.buf = make([]float64, need)
	}
	pc.buf = pc.buf[:cap(pc.buf)]
	pc.n, pc.tiles, pc.stride, pc.capCols, pc.k = n, tiles, stride, capCols, 0
}

// Reset drops the stored columns (capacity is kept) so the store can
// host the next sweep.
func (pc *PackedCols) Reset() { pc.k = 0 }

// Len reports the number of stored columns.
func (pc *PackedCols) Len() int { return pc.k }

// slot returns column j's storage for tile t; only the tile's width is
// valid, the rest is padding.
func (pc *PackedCols) slot(t, j int) []float64 {
	base := (t*pc.capCols + j) * pc.stride
	return pc.buf[base : base+pc.stride]
}

// AppendScaledDDotBudget appends the column a·src to the store and
// returns its D-norm ⟨a·src, a·src⟩_D (plain when d is nil) from the
// same pass — ScaledCopyDDotBudget with the packed store as
// destination. The tiling, per-tile expression, and serial in-tile-order
// combine are ScaledCopyDDotBudget's, so the returned sum is bitwise
// identical to the flat kernel's for every worker budget.
func (pc *PackedCols) AppendScaledDDotBudget(bud parallel.Budget, src, d []float64, a float64, partials []float64) float64 {
	if pc.k == pc.capCols {
		panic("linalg: PackedCols is full")
	}
	j := pc.k
	pc.k++
	n, tiles := pc.n, pc.tiles
	if tiles == 1 {
		return packScaledDDotRange(pc.slot(0, j), src, d, a, 0, n)
	}
	if bud.Workers() <= 1 {
		var s float64
		for t := 0; t < tiles; t++ {
			s += packScaledDDotRange(pc.slot(t, j), src, d, a, t*n/tiles, (t+1)*n/tiles)
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
		buf[t] = packScaledDDotRange(pc.slot(t, j), src, d, a, lo, hi)
	})
	var s float64
	for _, v := range buf {
		s += v
	}
	return s
}

// packScaledDDotRange is scaledCopyDDotRange writing into a tile slot:
// identical value stream and accumulation order, packed destination.
func packScaledDDotRange(slot, src, d []float64, a float64, lo, hi int) float64 {
	var s float64
	if d == nil {
		for i := lo; i < hi; i++ {
			v := a * src[i]
			slot[i-lo] = v
			s += v * v
		}
		return s
	}
	for i := lo; i < hi; i++ {
		v := a * src[i]
		slot[i-lo] = v
		s += v * d[i] * v
	}
	return s
}

// DDotPanelRangeBudget appends ⟨col_j, work⟩_D for every stored column
// j in [j0, j1) to out and returns it — DDotPanelBudget over a packed
// column range. Tiling, chunking, per-element order, and the
// ascending-tile combine mirror the flat kernel called on the same
// column slice exactly, so results are bitwise identical for every
// worker budget; only the column loads hit the padded tile-major
// storage instead of n-strided flat columns.
func (pc *PackedCols) DDotPanelRangeBudget(bud parallel.Budget, j0, j1 int, work, d, out, partials []float64) []float64 {
	k := j1 - j0
	if j1 > pc.k {
		panic("linalg: PackedCols column range exceeds stored columns")
	}
	if k <= 0 {
		return out
	}
	n, tiles := pc.n, pc.tiles
	base := len(out)
	for i := 0; i < k; i++ {
		out = append(out, 0)
	}
	if tiles == 1 {
		pc.dDotPackedRange(0, j0, j1, work, d, 0, n, out[base:])
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
			pc.dDotPackedRange(t, j0, j1, work, d, t*n/tiles, (t+1)*n/tiles, buf[t*k:(t+1)*k])
		}
	} else {
		forTiles(bud, n, tiles, func(t, lo, hi int) {
			pc.dDotPackedRange(t, j0, j1, work, d, lo, hi, buf[t*k:(t+1)*k])
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

// dDotPackedRange is dDotPanelRange over tile t's slots: columns
// [j0, j1) walked in PanelCols-wide chunks from j0, one fused pass per
// chunk — the same chunk boundaries the flat kernel produces for the
// slice cols[j0:j1].
func (pc *PackedCols) dDotPackedRange(t, j0, j1 int, work, d []float64, lo, hi int, acc []float64) {
	for c0 := j0; c0 < j1; c0 += PanelCols {
		c1 := c0 + PanelCols
		if c1 > j1 {
			c1 = j1
		}
		pc.dDotPackedChunk(t, c0, c1, work, d, lo, hi, acc[c0-j0:c1-j0])
	}
}

// dDotPackedChunk is dDotChunkRange against packed slots, with the slot
// rows indexed relative to lo.
func (pc *PackedCols) dDotPackedChunk(t, j0, j1 int, work, d []float64, lo, hi int, acc []float64) {
	if j1-j0 == PanelCols {
		c0, c1, c2, c3 := pc.slot(t, j0), pc.slot(t, j0+1), pc.slot(t, j0+2), pc.slot(t, j0+3)
		c4, c5, c6, c7 := pc.slot(t, j0+4), pc.slot(t, j0+5), pc.slot(t, j0+6), pc.slot(t, j0+7)
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		if d == nil {
			for r := lo; r < hi; r++ {
				w := work[r]
				a0 += c0[r-lo] * w
				a1 += c1[r-lo] * w
				a2 += c2[r-lo] * w
				a3 += c3[r-lo] * w
				a4 += c4[r-lo] * w
				a5 += c5[r-lo] * w
				a6 += c6[r-lo] * w
				a7 += c7[r-lo] * w
			}
		} else {
			for r := lo; r < hi; r++ {
				w := d[r] * work[r]
				a0 += c0[r-lo] * w
				a1 += c1[r-lo] * w
				a2 += c2[r-lo] * w
				a3 += c3[r-lo] * w
				a4 += c4[r-lo] * w
				a5 += c5[r-lo] * w
				a6 += c6[r-lo] * w
				a7 += c7[r-lo] * w
			}
		}
		acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
		acc[4], acc[5], acc[6], acc[7] = a4, a5, a6, a7
		return
	}
	// Narrow tail chunk: row-outer with a j-inner loop, like the flat
	// kernel. The slot headers live in a fixed-size stack array so the
	// tail allocates nothing.
	var cs [PanelCols][]float64
	kk := j1 - j0
	for j := 0; j < kk; j++ {
		cs[j] = pc.slot(t, j0+j)
	}
	for j := 0; j < kk; j++ {
		acc[j] = 0
	}
	if d == nil {
		for r := lo; r < hi; r++ {
			w := work[r]
			for j := 0; j < kk; j++ {
				acc[j] += cs[j][r-lo] * w
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		w := d[r] * work[r]
		for j := 0; j < kk; j++ {
			acc[j] += cs[j][r-lo] * w
		}
	}
}

// SubtractScaledRangeBudget computes work ← work − Σ_j coeffs[j−j0]·col_j
// over the stored columns [j0, j1) — SubtractScaledBudget against a
// packed column range. Each work element is combined with the same
// chunk-ordered compound expression as the flat kernel, so results are
// bitwise identical; the parallel partition runs over the fixed tiling
// (whose boundaries the packed slots cover exactly) rather than
// ForBlock, which is immaterial because every element is written by
// exactly one worker.
func (pc *PackedCols) SubtractScaledRangeBudget(bud parallel.Budget, j0, j1 int, work, coeffs []float64) {
	if j1 > pc.k {
		panic("linalg: PackedCols column range exceeds stored columns")
	}
	if len(coeffs) != j1-j0 {
		panic("linalg: PackedCols column/coefficient mismatch")
	}
	if j1 <= j0 {
		return
	}
	n, tiles := pc.n, pc.tiles
	if tiles == 1 || bud.Workers() <= 1 {
		for t := 0; t < tiles; t++ {
			pc.subPackedRange(t, j0, j1, work, coeffs, t*n/tiles, (t+1)*n/tiles)
		}
		return
	}
	forTiles(bud, n, tiles, func(t, lo, hi int) {
		pc.subPackedRange(t, j0, j1, work, coeffs, lo, hi)
	})
}

// subPackedRange is subScaledRange over tile t's slots for columns
// [j0, j1), chunked from j0 like dDotPackedRange.
func (pc *PackedCols) subPackedRange(t, j0, j1 int, work, coeffs []float64, lo, hi int) {
	for c0 := j0; c0 < j1; c0 += PanelCols {
		c1 := c0 + PanelCols
		if c1 > j1 {
			c1 = j1
		}
		pc.subPackedChunk(t, c0, c1, work, coeffs[c0-j0:c1-j0], lo, hi)
	}
}

// subPackedChunk is subChunkRange against packed slots.
func (pc *PackedCols) subPackedChunk(t, j0, j1 int, work, f []float64, lo, hi int) {
	if j1-j0 == PanelCols {
		c0, c1, c2, c3 := pc.slot(t, j0), pc.slot(t, j0+1), pc.slot(t, j0+2), pc.slot(t, j0+3)
		c4, c5, c6, c7 := pc.slot(t, j0+4), pc.slot(t, j0+5), pc.slot(t, j0+6), pc.slot(t, j0+7)
		f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
		f4, f5, f6, f7 := f[4], f[5], f[6], f[7]
		for r := lo; r < hi; r++ {
			work[r] -= f0*c0[r-lo] + f1*c1[r-lo] + f2*c2[r-lo] + f3*c3[r-lo] +
				f4*c4[r-lo] + f5*c5[r-lo] + f6*c6[r-lo] + f7*c7[r-lo]
		}
		return
	}
	var cs [PanelCols][]float64
	kk := j1 - j0
	for j := 0; j < kk; j++ {
		cs[j] = pc.slot(t, j0+j)
	}
	for r := lo; r < hi; r++ {
		w := work[r]
		for j := 0; j < kk; j++ {
			w -= f[j] * cs[j][r-lo]
		}
		work[r] = w
	}
}

// CopyColInto unpacks stored column j into the flat dst (length ≥ n).
func (pc *PackedCols) CopyColInto(dst []float64, j int) {
	n, tiles := pc.n, pc.tiles
	for t := 0; t < tiles; t++ {
		lo, hi := t*n/tiles, (t+1)*n/tiles
		copy(dst[lo:hi], pc.slot(t, j)[:hi-lo])
	}
}

// CopyColIntoBudget is CopyColInto with the tiles fanned out across the
// budget's workers — used when unpacking a full kept panel at result
// time.
func (pc *PackedCols) CopyColIntoBudget(bud parallel.Budget, dst []float64, j int) {
	n, tiles := pc.n, pc.tiles
	if tiles == 1 || bud.Workers() <= 1 {
		pc.CopyColInto(dst, j)
		return
	}
	forTiles(bud, n, tiles, func(t, lo, hi int) {
		copy(dst[lo:hi], pc.slot(t, j)[:hi-lo])
	})
}
