package linalg

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Reference kernels the production kernels are tested and gated
// against. Each one computes the same result, bit for bit, by a
// simpler or older route; none is called outside tests.

// atbNaive is the unblocked AᵀB: one full pass over a column pair per
// output element (A streamed t times, B streamed s times), tiled exactly
// like AtBBudget so the two stay bitwise comparable.
func atbNaive(bud parallel.Budget, a, b, c *Dense, partials []float64) *Dense {
	n, s, t, c := atbCheck(a, b, c)
	tiles := ReduceBlocks(n)
	if tiles == 1 {
		naivePanel(a, b, c.Data, 0, n)
		return c
	}
	var buf []float64
	if cap(partials) >= tiles*s*t {
		buf = partials[:tiles*s*t]
	} else {
		buf = make([]float64, tiles*s*t)
	}
	forTiles(bud, n, tiles, func(tl, lo, hi int) {
		naivePanel(a, b, buf[tl*s*t:(tl+1)*s*t], lo, hi)
	})
	combinePanels(c.Data, buf, tiles, s*t)
	return c
}

// naivePanel is atbNaive's inner loop: one column-pair pass per output
// element over rows [lo, hi).
func naivePanel(a, b *Dense, out []float64, lo, hi int) {
	s, t := a.Cols, b.Cols
	for j := 0; j < t; j++ {
		bj := b.Col(j)
		for i := 0; i < s; i++ {
			ai := a.Col(i)
			var sum float64
			for r := lo; r < hi; r++ {
				sum += ai[r] * bj[r]
			}
			out[j*s+i] = sum
		}
	}
}

// lapMulColumnwise computes P = L·S as s independent fused SpMVs — the
// paper's kernel, one pass over the edge list per column.
func lapMulColumnwise(bud parallel.Budget, g *graph.CSR, deg []float64, s *Dense) *Dense {
	p := NewDense(s.Rows, s.Cols)
	for j := 0; j < s.Cols; j++ {
		LapMulVecBudget(bud, g, deg, s.Col(j), p.Col(j))
	}
	return p
}

// lapMulTwoPass computes P = L·S by fusing all n rows into a full n·s
// row-major panel prm and transposing it back in a separate sweep — the
// unchunked form of LapMulDenseTiledPackedBudget. p, srm and prm are
// allocated when nil or short.
func lapMulTwoPass(bud parallel.Budget, g *graph.CSR, deg []float64, s, p *Dense, srm, prm []float64) *Dense {
	n, cols := s.Rows, s.Cols
	if p == nil {
		p = NewDense(n, cols)
	}
	if cols == 0 {
		return p
	}
	if cap(srm) < n*cols {
		srm = make([]float64, n*cols)
	}
	if cap(prm) < n*cols {
		prm = make([]float64, n*cols)
	}
	srm, prm = srm[:n*cols], prm[:n*cols]
	bud.ForBlock(n, func(lo, hi int) { packRowMajor(s, srm, lo, hi, cols) })
	bud.ForBlock(n, func(lo, hi int) { fusedRows(g, deg, srm, prm, 0, lo, hi, cols) })
	bud.ForBlock(n, func(lo, hi int) { unpackRowMajor(p, prm, 0, lo, hi, cols) })
	return p
}
