package linalg

import (
	"repro/internal/parallel"
)

// AtBBudget computes the small dense product C = AᵀB, where A and B are
// n×s and n×t column-major matrices with large n and small s, t. This is
// the dgemm step of the TripleProd phase, Z = Sᵀ(LS): the paper notes its
// arithmetic intensity is s and its depth is independent of s (Table 1).
//
// The row dimension is cut into the fixed TileRows tiling; each tile is
// filled with the register-blocked 4×2 micro-kernel (see blocked.go) into
// its own s×t panel and the panels are combined serially in tile order.
// c receives the product (allocated when nil; contents are overwritten)
// and partials is the per-tile panel arena (capacity ≥
// ReduceBlocks(n)·s·t floats, grown when short); a workspace-backed
// caller passes both and the steady-state product allocates nothing.
// Because the tile grid depends only on n, the budget sets how many
// goroutines the tiles fan out across and nothing else: the result is
// bitwise identical for every worker budget, including the serial path.
// Each output element owns one accumulator advancing in ascending row
// order, so the blocked kernel also sums in the same order as the naive
// reference within a tile.
func AtBBudget(bud parallel.Budget, a, b, c *Dense, partials []float64) *Dense {
	n, s, t, c := atbCheck(a, b, c)
	tiles := ReduceBlocks(n)
	if tiles == 1 {
		atbPanel(a, b, c.Data, 0, n)
		return c
	}
	var buf []float64
	if cap(partials) >= tiles*s*t {
		buf = partials[:tiles*s*t]
	} else {
		buf = make([]float64, tiles*s*t)
	}
	if bud.Workers() <= 1 {
		for tl := 0; tl < tiles; tl++ {
			atbPanel(a, b, buf[tl*s*t:(tl+1)*s*t], tl*n/tiles, (tl+1)*n/tiles)
		}
	} else {
		forTiles(bud, n, tiles, func(tl, lo, hi int) {
			atbPanel(a, b, buf[tl*s*t:(tl+1)*s*t], lo, hi)
		})
	}
	combinePanels(c.Data, buf, tiles, s*t)
	return c
}

// atbCheck validates shapes and allocates c when nil.
func atbCheck(a, b, c *Dense) (n, s, t int, out *Dense) {
	if a.Rows != b.Rows {
		panic("linalg: AtB dimension mismatch")
	}
	n, s, t = a.Rows, a.Cols, b.Cols
	if c == nil {
		c = NewDense(s, t)
	} else if c.Rows != s || c.Cols != t {
		panic("linalg: AtB output shape mismatch")
	}
	return n, s, t, c
}

// combinePanels sums the nb per-tile panels serially in ascending tile
// order — the fixed combine order that keeps results identical across
// worker budgets.
func combinePanels(dst, buf []float64, nb, panel int) {
	for k := 0; k < panel; k++ {
		var sum float64
		for w := 0; w < nb; w++ {
			sum += buf[w*panel+k]
		}
		dst[k] = sum
	}
}

// MulSmallBudget computes C = A·Y where A is n×s column-major (large n)
// and Y is s×p (tiny). This is the final projection [x, y] = B·Y of both
// HDE variants. c receives the product (allocated when nil; contents are
// overwritten). Parallelized over row blocks; within a block the output
// columns are produced in pairs so every A column is streamed once per
// pair instead of once per output column (half the read traffic for the
// usual p = 2). Each output element is produced by exactly one worker
// with a fixed in-row summation order, so the result is
// partition-independent.
func MulSmallBudget(bud parallel.Budget, a, y, c *Dense) *Dense {
	if a.Cols != y.Rows {
		panic("linalg: MulSmall dimension mismatch")
	}
	n, p := a.Rows, y.Cols
	if c == nil {
		c = NewDense(n, p)
	} else if c.Rows != n || c.Cols != p {
		panic("linalg: MulSmall output shape mismatch")
	}
	if bud.Serial(n) {
		mulSmallRows(a, y, c, 0, n)
	} else {
		bud.ForBlock(n, func(lo, hi int) { mulSmallRows(a, y, c, lo, hi) })
	}
	return c
}

// mulSmallRows computes rows [lo, hi) of c = a·y, two output columns at a
// time: for each row quad the k-loop reads a[k·n+r] once and feeds both
// columns' accumulators, summing over k in ascending order exactly like
// the one-column-at-a-time reference.
func mulSmallRows(a, y, c *Dense, lo, hi int) {
	n, s, p := a.Rows, a.Cols, y.Cols
	ad := a.Data
	j := 0
	for ; j+2 <= p; j += 2 {
		y0, y1 := y.Col(j), y.Col(j+1)
		c0, c1 := c.Col(j), c.Col(j+1)
		r := lo
		for ; r+4 <= hi; r += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k := 0; k < s; k++ {
				base := k * n
				f0, f1 := y0[k], y1[k]
				a0, a1, a2, a3 := ad[base+r], ad[base+r+1], ad[base+r+2], ad[base+r+3]
				s00 += a0 * f0
				s10 += a0 * f1
				s01 += a1 * f0
				s11 += a1 * f1
				s02 += a2 * f0
				s12 += a2 * f1
				s03 += a3 * f0
				s13 += a3 * f1
			}
			c0[r], c0[r+1], c0[r+2], c0[r+3] = s00, s01, s02, s03
			c1[r], c1[r+1], c1[r+2], c1[r+3] = s10, s11, s12, s13
		}
		for ; r < hi; r++ {
			var s0, s1 float64
			for k := 0; k < s; k++ {
				av := ad[k*n+r]
				s0 += av * y0[k]
				s1 += av * y1[k]
			}
			c0[r], c1[r] = s0, s1
		}
	}
	if j < p {
		y0 := y.Col(j)
		c0 := c.Col(j)
		for r := lo; r < hi; r++ {
			var s0 float64
			for k := 0; k < s; k++ {
				s0 += ad[k*n+r] * y0[k]
			}
			c0[r] = s0
		}
	}
}
