package linalg

// Register-blocked micro-kernels for the dense TripleProd/projection
// phases. The naive AᵀB kernel streams one column of A and one column of
// B per output element, so A is read t times and B s times — 2·s·t·n
// float64 loads for an s×t output. The kernels here compute a 4×2 output
// tile per pass instead: four A columns and two B columns are streamed
// together into eight independent accumulators, cutting the loads to
// 6·n per 8 outputs (0.75·s·t·n total, a 2.7× traffic reduction) while
// the row loop is unrolled by 4 to expose independent FMA chains. Each
// output element still owns exactly one accumulator advancing in
// ascending row order, so the blocked kernels sum in the same order as
// the naive ones and stay deterministic for a fixed worker count.
//
// All kernels are tail-safe: row counts that are not a multiple of the
// unroll factor and column counts that are not a multiple of the tile
// shape fall through to narrower kernels covering the remainder.

// dot4x2 computes the 4×2 tile cᵢⱼ = Σ_r aᵢ[r]·bⱼ[r] over the full
// slice length with a 4-way unrolled row loop. Each accumulator adds one
// product at a time in ascending row order, exactly like the naive
// kernel.
func dot4x2(a0, a1, a2, a3, b0, b1 []float64) (c00, c10, c20, c30, c01, c11, c21, c31 float64) {
	n := len(a0)
	a1, a2, a3, b0, b1 = a1[:n], a2[:n], a3[:n], b0[:n], b1[:n]
	r := 0
	for ; r+4 <= n; r += 4 {
		x0, x1 := b0[r], b1[r]
		c00 += a0[r] * x0
		c01 += a0[r] * x1
		c10 += a1[r] * x0
		c11 += a1[r] * x1
		c20 += a2[r] * x0
		c21 += a2[r] * x1
		c30 += a3[r] * x0
		c31 += a3[r] * x1
		x0, x1 = b0[r+1], b1[r+1]
		c00 += a0[r+1] * x0
		c01 += a0[r+1] * x1
		c10 += a1[r+1] * x0
		c11 += a1[r+1] * x1
		c20 += a2[r+1] * x0
		c21 += a2[r+1] * x1
		c30 += a3[r+1] * x0
		c31 += a3[r+1] * x1
		x0, x1 = b0[r+2], b1[r+2]
		c00 += a0[r+2] * x0
		c01 += a0[r+2] * x1
		c10 += a1[r+2] * x0
		c11 += a1[r+2] * x1
		c20 += a2[r+2] * x0
		c21 += a2[r+2] * x1
		c30 += a3[r+2] * x0
		c31 += a3[r+2] * x1
		x0, x1 = b0[r+3], b1[r+3]
		c00 += a0[r+3] * x0
		c01 += a0[r+3] * x1
		c10 += a1[r+3] * x0
		c11 += a1[r+3] * x1
		c20 += a2[r+3] * x0
		c21 += a2[r+3] * x1
		c30 += a3[r+3] * x0
		c31 += a3[r+3] * x1
	}
	for ; r < n; r++ {
		x0, x1 := b0[r], b1[r]
		c00 += a0[r] * x0
		c01 += a0[r] * x1
		c10 += a1[r] * x0
		c11 += a1[r] * x1
		c20 += a2[r] * x0
		c21 += a2[r] * x1
		c30 += a3[r] * x0
		c31 += a3[r] * x1
	}
	return c00, c10, c20, c30, c01, c11, c21, c31
}

// dot4x1 is the j-tail of the 4×2 tile: four A columns against one B
// column.
func dot4x1(a0, a1, a2, a3, b0 []float64) (c0, c1, c2, c3 float64) {
	n := len(a0)
	a1, a2, a3, b0 = a1[:n], a2[:n], a3[:n], b0[:n]
	r := 0
	// Each accumulator advances one product at a time (no multi-product
	// sums): Go cannot reassociate these, so the summation order is
	// exactly the naive kernel's and results stay bitwise identical.
	for ; r+4 <= n; r += 4 {
		x0, x1, x2, x3 := b0[r], b0[r+1], b0[r+2], b0[r+3]
		c0 += a0[r] * x0
		c0 += a0[r+1] * x1
		c0 += a0[r+2] * x2
		c0 += a0[r+3] * x3
		c1 += a1[r] * x0
		c1 += a1[r+1] * x1
		c1 += a1[r+2] * x2
		c1 += a1[r+3] * x3
		c2 += a2[r] * x0
		c2 += a2[r+1] * x1
		c2 += a2[r+2] * x2
		c2 += a2[r+3] * x3
		c3 += a3[r] * x0
		c3 += a3[r+1] * x1
		c3 += a3[r+2] * x2
		c3 += a3[r+3] * x3
	}
	for ; r < n; r++ {
		x := b0[r]
		c0 += a0[r] * x
		c1 += a1[r] * x
		c2 += a2[r] * x
		c3 += a3[r] * x
	}
	return c0, c1, c2, c3
}

// dot1x2 is the i-tail of the 4×2 tile: one A column against two B
// columns.
func dot1x2(a0, b0, b1 []float64) (c0, c1 float64) {
	n := len(a0)
	b0, b1 = b0[:n], b1[:n]
	r := 0
	for ; r+4 <= n; r += 4 {
		x0, x1, x2, x3 := a0[r], a0[r+1], a0[r+2], a0[r+3]
		c0 += x0 * b0[r]
		c0 += x1 * b0[r+1]
		c0 += x2 * b0[r+2]
		c0 += x3 * b0[r+3]
		c1 += x0 * b1[r]
		c1 += x1 * b1[r+1]
		c1 += x2 * b1[r+2]
		c1 += x3 * b1[r+3]
	}
	for ; r < n; r++ {
		c0 += a0[r] * b0[r]
		c1 += a0[r] * b1[r]
	}
	return c0, c1
}

// dot1x1 is the scalar corner of the tiling.
func dot1x1(a0, b0 []float64) (c float64) {
	n := len(a0)
	b0 = b0[:n]
	r := 0
	for ; r+4 <= n; r += 4 {
		c += a0[r] * b0[r]
		c += a0[r+1] * b0[r+1]
		c += a0[r+2] * b0[r+2]
		c += a0[r+3] * b0[r+3]
	}
	for ; r < n; r++ {
		c += a0[r] * b0[r]
	}
	return c
}

// atbPanel writes the s×t column-major panel out[j*s+i] = Σ_{r∈[lo,hi)}
// a_i[r]·b_j[r], tiling the output 4×2 so each pass over the row range
// serves eight elements. Called once per row block by AtBBudget; with one
// block it produces the final product directly.
func atbPanel(a, b *Dense, out []float64, lo, hi int) {
	s, t := a.Cols, b.Cols
	j := 0
	for ; j+2 <= t; j += 2 {
		b0, b1 := b.Col(j)[lo:hi], b.Col(j + 1)[lo:hi]
		o0, o1 := out[j*s:(j+1)*s], out[(j+1)*s:(j+2)*s]
		i := 0
		for ; i+4 <= s; i += 4 {
			c00, c10, c20, c30, c01, c11, c21, c31 := dot4x2(
				a.Col(i)[lo:hi], a.Col(i + 1)[lo:hi], a.Col(i + 2)[lo:hi], a.Col(i + 3)[lo:hi], b0, b1)
			o0[i], o0[i+1], o0[i+2], o0[i+3] = c00, c10, c20, c30
			o1[i], o1[i+1], o1[i+2], o1[i+3] = c01, c11, c21, c31
		}
		for ; i < s; i++ {
			o0[i], o1[i] = dot1x2(a.Col(i)[lo:hi], b0, b1)
		}
	}
	if j < t {
		b0 := b.Col(j)[lo:hi]
		o0 := out[j*s : (j+1)*s]
		i := 0
		for ; i+4 <= s; i += 4 {
			o0[i], o0[i+1], o0[i+2], o0[i+3] = dot4x1(
				a.Col(i)[lo:hi], a.Col(i + 1)[lo:hi], a.Col(i + 2)[lo:hi], a.Col(i + 3)[lo:hi], b0)
		}
		for ; i < s; i++ {
			o0[i] = dot1x1(a.Col(i)[lo:hi], b0)
		}
	}
}
