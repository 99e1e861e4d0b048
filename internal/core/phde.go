package core

import (
	"fmt"
	"math"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/pivot"
)

// PHDE computes a layout with the PCA-based High-Dimensional Embedding of
// Harel and Koren (ICPP'20 Algorithm 2, parallelized per §3.2): s
// traversals, two-phase column centering of the distance matrix, the top
// two eigenvectors of CᵀC, and the projection [x, y] = C·Y. Unlike
// ParHDE it involves no Laplacian product.
func PHDE(g *graph.CSR, opt Options) (*Layout, *Report, error) {
	return pcaEmbed(g, opt, false)
}

// PivotMDS computes a layout with Brandes and Pich's PivotMDS, whose
// computational profile matches PHDE except that the squared distance
// matrix is double-centered instead of column-centered (§3.2).
func PivotMDS(g *graph.CSR, opt Options) (*Layout, *Report, error) {
	return pcaEmbed(g, opt, true)
}

func pcaEmbed(g *graph.CSR, opt Options, doubleCenter bool) (*Layout, *Report, error) {
	opt = opt.withDefaults()
	if g.NumV < 2 {
		return nil, nil, fmt.Errorf("core: graph has %d vertices, need at least 2", g.NumV)
	}
	rep := &Report{}
	bd := &rep.Breakdown
	n := g.NumV
	s := opt.Subspace
	if s >= n {
		s = n - 1
	}
	var layout *Layout
	var err error
	timed(&bd.Total, func() {
		// --- BFS phase ---------------------------------------------------
		c := linalg.NewDense(n, s)
		start := int32(splitmix(opt.Seed) % uint64(n))
		var ps pivot.PhaseStats
		onTrav := func(f func()) { timed(&bd.BFSTraversal, f) }
		onOther := func(f func()) { timed(&bd.BFSOther, f) }
		if g.Weighted() {
			ps = pivot.PhaseWeighted(g, c, start, opt.Delta, onTrav, onOther)
		} else {
			ps = pivot.Phase(g, c, start, opt.Pivots, opt.BFS, onTrav, onOther)
		}
		rep.Sources = ps.Sources
		rep.BFSStats = ps.Traversal
		if !opt.SkipConnectivityCheck {
			col := c.Col(0)
			for i := range col {
				if col[i] < 0 || math.IsInf(col[i], 1) {
					err = fmt.Errorf("core: graph is not connected (vertex %d unreachable)", i)
					return
				}
			}
		}

		// --- Centering ("DblCntr"/"ColCenter" in Figure 6) ----------------
		timed(&bd.Centering, func() {
			if doubleCenter {
				linalg.SquareElements(c)
				linalg.DoubleCenter(c)
			} else {
				linalg.ColumnCenter(c)
			}
		})

		// --- MatMul: Z = CᵀC ----------------------------------------------
		var z *linalg.Dense
		timed(&bd.Gemm, func() { z = linalg.AtBBudget(parallel.Live(), c, c, nil, nil) })

		// --- Eigensolve: top two eigenvectors of the covariance -----------
		var axes *linalg.Dense
		timed(&bd.Eigensolve, func() {
			rep.Eigenvalues, axes, err = eigen.TopK(z, opt.Dims)
		})
		if err != nil {
			return
		}
		rep.KeptColumns = s

		// --- Projection [x, y] = C·Y --------------------------------------
		timed(&bd.Project, func() {
			layout = &Layout{Coords: linalg.MulSmallBudget(parallel.Live(), c, axes, nil)}
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return layout, rep, nil
}
