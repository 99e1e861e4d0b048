package ortho

import (
	"repro/internal/linalg"
)

// Scratch owns the DOrtho phase's reusable storage: the kept-column
// stores (s+1 length-n columns — the constant direction plus up to s
// survivors), the working vector, the output matrix backing Result.S, and
// the reduction-partials buffer every D-inner product of a sweep reuses
// instead of allocating per dot product. One Scratch serves both
// DOrthogonalizeBudget and NewIncrementalBudget; a pooled workspace keeps
// one per (n, s) shape.
//
// Results produced through a Scratch alias its storage (Result.S, DNorms,
// Kept), so they are valid only until the Scratch's next use.
type Scratch struct {
	n, s     int
	arena    []float64   // (s+1)·n backing for kept columns (CGS, lazy)
	cols     [][]float64 // views into arena, rebuilt on ensureCols
	colsN    int         // shape the arena/cols were last built for
	colsS    int
	packed   *linalg.PackedCols // tile-major kept-column store (MGS, lazy)
	work     []float64
	partials []float64 // reduction partials shared by every dot in a sweep
	// panelPartials is the per-block arena of the fused panel multi-dot:
	// ReduceBlocks(n) blocks × up to s+1 columns (CGS projects against
	// every kept column at once).
	panelPartials []float64
	coeffs        []float64 // panel/CGS coefficient vector
	sOut          *linalg.Dense
	dNorms        []float64
	keptIdx       []int
}

// NewScratch returns orthogonalization scratch for up to s length-n
// input columns.
func NewScratch(n, s int) *Scratch {
	sc := &Scratch{}
	sc.Ensure(n, s)
	return sc
}

// Ensure grows the scratch to cover (n, s); sufficient buffers are kept,
// so same-shaped reuse touches no allocator. The kept-column stores are
// lazy — ensureCols (CGS) and ensurePacked (MGS) size their own storage
// on first use, so a scratch only pays for the method actually running
// through it.
func (sc *Scratch) Ensure(n, s int) {
	if sc.n == n && sc.s >= s {
		return
	}
	if cap(sc.work) < n {
		sc.work = make([]float64, n)
	}
	sc.work = sc.work[:n]
	if p := linalg.ReduceBlocks(n); cap(sc.partials) < p {
		sc.partials = make([]float64, p)
	}
	if p := linalg.ReduceBlocks(n) * (s + 1); cap(sc.panelPartials) < p {
		sc.panelPartials = make([]float64, p)
	}
	if cap(sc.coeffs) < s+1 {
		sc.coeffs = make([]float64, 0, s+1)
	}
	if sc.sOut == nil || sc.sOut.Rows != n || sc.sOut.Cols < s {
		sc.sOut = linalg.NewDense(n, s)
	}
	if cap(sc.dNorms) < s+1 {
		sc.dNorms = make([]float64, 0, s+1)
	}
	if cap(sc.keptIdx) < s {
		sc.keptIdx = make([]int, 0, s)
	}
	sc.n, sc.s = n, s
}

// ensureCols builds the flat kept-column arena for the current (n, s) —
// called at the top of every CGS sweep, so MGS never pays for storage it
// does not touch.
func (sc *Scratch) ensureCols() {
	n, s := sc.n, sc.s
	if sc.colsN == n && sc.colsS >= s {
		return
	}
	if cap(sc.arena) < (s+1)*n {
		sc.arena = make([]float64, (s+1)*n)
	}
	sc.arena = sc.arena[:(s+1)*n]
	if cap(sc.cols) < s+1 {
		sc.cols = make([][]float64, 0, s+1)
	}
	sc.cols = sc.cols[:s+1]
	for j := range sc.cols {
		sc.cols[j] = sc.arena[j*n : (j+1)*n]
	}
	sc.colsN, sc.colsS = n, s
}

// ensurePacked shapes (and resets) the tile-major kept-column store for
// the current (n, s) — called at the start of every MGS sweep.
func (sc *Scratch) ensurePacked() *linalg.PackedCols {
	if sc.packed == nil {
		sc.packed = &linalg.PackedCols{}
	}
	sc.packed.Ensure(sc.n, sc.s+1)
	return sc.packed
}
