package linalg

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// LapMulDenseTiledPackedBudget computes P = L·S — step 1 of the
// TripleProd phase — without materializing the Laplacian. It exploits
// the s ≫ 1 special case the paper points at ("performance can be
// further improved for special cases such as m/n ≫ s or s ≫ 1", §3.1):
// instead of s independent SpMV passes that each re-read the adjacency
// structure, S is repacked row-major (srm) so one pass over the edge
// list advances all s columns — each neighbor access loads a vertex's
// full s-wide row contiguously, raising the kernel's arithmetic intensity
// from O(1) to O(s) (Table 1's analysis). The output pass stays
// cache-resident: each worker fuses a PackRows-high chunk of rows into
// its arena slot and unpacks it into the column-major result while it is
// still in cache, so no n·s row-major output panel is ever written. The
// source pack stays global because fusedRows gathers arbitrary
// neighbors' rows.
//
// p receives the product (allocated when nil), srm is the n·s source
// pack (allocated when its capacity is short) and arena the per-worker
// chunk slots (nil allocates private ones); a workspace-backed caller
// passes all three and the steady-state kernel performs no O(n·s)
// allocations. Every output element is produced by one worker with a
// fixed per-element accumulation order — adjacency order, degree term
// last, exactly the order of s column-wise SpMVs (LapMulVecBudget) — so
// the result is bitwise identical to the column-wise product for every
// worker budget.
func LapMulDenseTiledPackedBudget(bud parallel.Budget, g *graph.CSR, deg []float64, s, p *Dense, srm []float64, arena *PackArena) *Dense {
	n, cols := s.Rows, s.Cols
	if n != g.NumV {
		panic("linalg: LapMulDenseTiledPacked dimension mismatch")
	}
	if p == nil {
		p = NewDense(n, cols)
	} else if p.Rows != n || p.Cols != cols {
		panic("linalg: LapMulDenseTiledPacked output shape mismatch")
	}
	if cols == 0 {
		return p
	}
	if cap(srm) < n*cols {
		srm = make([]float64, n*cols)
	}
	srm = srm[:n*cols]
	if arena == nil {
		arena = &PackArena{}
	}
	workers := bud.BlockWorkers(n)
	arena.Ensure(workers, PackRows*cols)
	if workers <= 1 {
		packRowMajor(s, srm, 0, n, cols)
		slot := arena.slot(0)
		for r0 := 0; r0 < n; r0 += PackRows {
			r1 := min(r0+PackRows, n)
			fusedRows(g, deg, srm, slot, r0, r0, r1, cols)
			unpackRowMajor(p, slot, r0, r0, r1, cols)
		}
		return p
	}
	parallel.ForBlockIndexed(workers, n, func(_, lo, hi int) {
		packRowMajor(s, srm, lo, hi, cols)
	})
	parallel.ForBlockIndexed(workers, n, func(w, lo, hi int) {
		slot := arena.slot(w)
		for r0 := lo; r0 < hi; r0 += PackRows {
			r1 := min(r0+PackRows, hi)
			fusedRows(g, deg, srm, slot, r0, r0, r1, cols)
			unpackRowMajor(p, slot, r0, r0, r1, cols)
		}
	})
	return p
}

// packRowMajor transposes rows [lo, hi) of the column-major s into srm.
func packRowMajor(s *Dense, srm []float64, lo, hi, cols int) {
	for j := 0; j < cols; j++ {
		col := s.Col(j)
		for i := lo; i < hi; i++ {
			srm[i*cols+j] = col[i]
		}
	}
}

// fusedRows computes rows [lo, hi) of the row-major product prm = L·S
// over the row-major pack srm: prm_i = deg_i·srm_i − Σ_{u∈adj(i)} srm_u,
// accumulating into prm_i itself. prm is indexed relative to base —
// base lo addresses an arena slot holding only rows [lo, hi), base 0 a
// full n-row panel. The accumulation order per element matches
// LapMulVecBudget exactly (adjacency order, degree term last) and does
// not depend on base.
func fusedRows(g *graph.CSR, deg, srm, prm []float64, base, lo, hi, cols int) {
	weighted := g.Weighted()
	for i := lo; i < hi; i++ {
		acc := prm[(i-base)*cols : (i-base+1)*cols]
		for k := range acc {
			acc[k] = 0
		}
		o0, o1 := g.Offsets[i], g.Offsets[i+1]
		if weighted {
			for a := o0; a < o1; a++ {
				row := srm[int(g.Adj[a])*cols:]
				w := g.Weights[a]
				for k := 0; k < cols; k++ {
					acc[k] += w * row[k]
				}
			}
		} else {
			for a := o0; a < o1; a++ {
				row := srm[int(g.Adj[a])*cols:]
				for k := 0; k < cols; k++ {
					acc[k] += row[k]
				}
			}
		}
		d := deg[i]
		self := srm[i*cols:]
		for k := 0; k < cols; k++ {
			acc[k] = d*self[k] - acc[k]
		}
	}
}

// unpackRowMajor transposes rows [lo, hi) of prm into the column-major
// p. prm is indexed relative to base, like fusedRows.
func unpackRowMajor(p *Dense, prm []float64, base, lo, hi, cols int) {
	for j := 0; j < cols; j++ {
		col := p.Col(j)
		for i := lo; i < hi; i++ {
			col[i] = prm[(i-base)*cols+j]
		}
	}
}
