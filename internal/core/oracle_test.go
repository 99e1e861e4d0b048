package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/pivot"
)

// lsOracle computes P = L·S by a reference route.
type lsOracle func(bud parallel.Budget, g *graph.CSR, deg []float64, s *linalg.Dense) *linalg.Dense

// lsColumnwise is the paper's L·S: s independent fused SpMVs.
func lsColumnwise(bud parallel.Budget, g *graph.CSR, deg []float64, s *linalg.Dense) *linalg.Dense {
	p := linalg.NewDense(s.Rows, s.Cols)
	for j := 0; j < s.Cols; j++ {
		linalg.LapMulVecBudget(bud, g, deg, s.Col(j), p.Col(j))
	}
	return p
}

// lsTwoPass is the unchunked tiled L·S: pack S row-major, fuse every row
// of L·S into a full n·s row-major panel in one edge-list pass, then
// transpose the panel back.
func lsTwoPass(_ parallel.Budget, g *graph.CSR, deg []float64, s *linalg.Dense) *linalg.Dense {
	n, k := s.Rows, s.Cols
	srm := make([]float64, n*k)
	prm := make([]float64, n*k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			srm[i*k+j] = s.At(i, j)
		}
	}
	for i := 0; i < n; i++ {
		acc := prm[i*k : (i+1)*k]
		for a := g.Offsets[i]; a < g.Offsets[i+1]; a++ {
			w := 1.0 // w·x == x exactly, so unweighted rows sum the same bits
			if g.Weighted() {
				w = g.Weights[a]
			}
			row := srm[int(g.Adj[a])*k:]
			for c := range acc {
				acc[c] += w * row[c]
			}
		}
		for c := range acc {
			acc[c] = deg[i]*srm[i*k+c] - acc[c]
		}
	}
	p := linalg.NewDense(n, k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			p.Set(i, j, prm[i*k+j])
		}
	}
	return p
}

// oracleLayout recomputes ParHDE's decoupled cold layout on one worker,
// phase by phase through the exported kernels, with L·S taken from ls.
func oracleLayout(t *testing.T, g *graph.CSR, opt Options, ls lsOracle) *Layout {
	t.Helper()
	opt = opt.withDefaults()
	n, s := g.NumV, min(opt.Subspace, g.NumV-1)
	bud := parallel.FixedBudget(1)
	b := linalg.NewDense(n, s)
	start := int32(splitmix(opt.Seed) % uint64(n))
	if g.Weighted() {
		pivot.PhaseWeighted(g, b, start, opt.Delta, nil, nil)
	} else {
		pivot.PhaseBudget(bud, g, b, start, opt.Pivots, opt.BFS, nil, nil, nil)
	}
	deg := g.WeightedDegreesIntoBudget(bud, nil)
	d := deg
	if opt.PlainOrtho {
		d = nil
	}
	res := ortho.DOrthogonalizeBudget(bud, b, d, opt.Ortho, nil)
	p := ls(bud, g, deg, res.S)
	z := linalg.AtBBudget(bud, res.S, p, nil, nil)
	axes, _, err := projectedAxes(z, res.DNorms, opt.Dims)
	if err != nil {
		t.Fatalf("oracle eigensolve: %v", err)
	}
	return &Layout{Coords: linalg.MulSmallBudget(bud, res.S, axes, nil)}
}

// assertCoordsEqual fails unless got and want are bitwise identical.
func assertCoordsEqual(t *testing.T, tag string, got, want *Layout) {
	t.Helper()
	if got.Coords.Rows != want.Coords.Rows || got.Coords.Cols != want.Coords.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", tag, got.Coords.Rows, got.Coords.Cols, want.Coords.Rows, want.Coords.Cols)
	}
	for i := range want.Coords.Data {
		if got.Coords.Data[i] != want.Coords.Data[i] {
			t.Fatalf("%s: coord %d = %v, want %v (bitwise)", tag, i, got.Coords.Data[i], want.Coords.Data[i])
		}
	}
}
