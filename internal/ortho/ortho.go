// Package ortho implements the DOrtho phase of ParHDE: Gram-Schmidt-style
// (D-)orthogonalization of the BFS distance vectors against the constant
// vector and each other, with near-linearly-dependent columns dropped
// (ICPP'20 Algorithm 3, lines 9-16). Two procedures are provided. The
// default, MGS, is panel-blocked Gram-Schmidt: the candidate column is
// projected against the kept columns one PanelCols-wide panel at a time,
// each panel costing one fused multi-dot pass and one fused multi-axpy
// pass over a cache-resident tile-major store of the kept columns
// (linalg.PackedCols) — the bandwidth-lean formulation of the paper's
// Level-1 procedure. The batch sweep is a loop of Incremental.Add, so a
// coupled BFS+DOrtho run and a decoupled run execute the same sweep.
// CGS is Classical Gram-Schmidt organized as Level-2 matrix-vector
// products (Table 7), which trades numerical robustness for the fewest
// synchronization points.
package ortho

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Method selects the orthogonalization procedure.
type Method int

const (
	// MGS is panel-blocked (modified) Gram-Schmidt: the candidate is
	// orthogonalized against previously kept columns panel by panel, with
	// one fused multi-dot and one fused multi-axpy pass per panel.
	// Coefficients within a panel are computed from the same candidate
	// state (classical within the panel, modified across panels) — the
	// standard block Gram-Schmidt compromise.
	MGS Method = iota
	// CGS is Classical Gram-Schmidt: all projection coefficients for a
	// column are computed from the original column at once (Level-2 BLAS),
	// requiring all distance vectors to be precomputed.
	CGS
)

func (m Method) String() string {
	if m == CGS {
		return "CGS"
	}
	return "MGS"
}

// DropTolerance is the residual-norm threshold below which a column is
// considered linearly dependent and discarded (Algorithm 3, line 12).
const DropTolerance = 1e-3

// Result is the output of an orthogonalization pass.
type Result struct {
	// S holds the kept orthonormal columns (the 0th constant column is
	// already dropped, per Algorithm 3 line 16). Columns have unit
	// Euclidean norm.
	S *linalg.Dense
	// DNorms[j] = S_jᵀ D S_j for each kept column: the diagonal of SᵀDS,
	// needed to convert the projected eigenproblem to standard form when
	// D-orthogonalization (rather than D-orthonormalization) is used.
	DNorms []float64
	// Kept lists the indices of the input columns that survived.
	Kept []int
	// Dropped counts discarded near-dependent columns.
	Dropped int
}

// DOrthogonalizeBudget orthogonalizes the columns of b against 1/√n and
// each other under the D-inner product ⟨x,y⟩_D = xᵀdiag(d)y. Passing
// d == nil selects the plain orthogonalization variant of §4.5.1
// (approximating Laplacian rather than degree-normalized eigenvectors).
// b is not modified.
//
// The sweep runs over sc's buffers (nil allocates private scratch); the
// returned Result aliases that scratch, so with a pooled scratch it is
// valid only until the scratch's next use, and the phase performs no
// O(n)-sized allocations. The budget only sets how many goroutines each
// kernel fans out across; the fixed row tiling of every reduction makes
// the numbers bitwise identical for every budget, including the serial
// path.
func DOrthogonalizeBudget(bud parallel.Budget, b *linalg.Dense, d []float64, method Method, sc *Scratch) Result {
	if method == CGS {
		return cgs(bud, b, d, sc)
	}
	inc := newIncremental(bud, b.Rows, b.Cols, d, sc)
	for i := 0; i < b.Cols; i++ {
		inc.Add(b.Col(i))
	}
	return inc.Result()
}

// cgs is the Classical Gram-Schmidt sweep over the scratch's flat
// kept-column arena: every coefficient of a column comes from the
// pre-projection vector in one multi-dot over all kept columns, followed
// by one combined update — two sweeps over memory per column, versus a
// sweep pair per panel for MGS.
func cgs(bud parallel.Budget, b *linalg.Dense, d []float64, sc *Scratch) Result {
	n, s := b.Rows, b.Cols
	if sc == nil {
		sc = NewScratch(n, s)
	} else {
		sc.Ensure(n, s)
	}
	sc.ensureCols()
	// s0 = 1/√n: the degenerate direction every column must be cleaned of.
	s0 := sc.cols[0]
	linalg.FillBudget(bud, s0, 1/math.Sqrt(float64(n)))

	kept := sc.cols[:1]
	keptDN := append(sc.dNorms[:0], dNormP(bud, s0, d, sc.partials))
	keptIdx := sc.keptIdx[:0]

	work := sc.work
	coeffs := sc.coeffs[:0]
	dropped := 0
	for i := 0; i < s; i++ {
		src := b.Col(i)
		// Pre-normalize so the drop tolerance is scale-free (Algorithm 1
		// normalizes each column before orthogonalizing). The norm is taken
		// over the source column and folded into the copy, one fused pass
		// instead of copy + norm + scale.
		nrm := norm2P(bud, src, sc.partials)
		if nrm <= DropTolerance {
			dropped++
			continue
		}
		linalg.ScaledCopyBudget(bud, work, src, 1/nrm)
		coeffs = linalg.DDotPanelBudget(bud, kept, work, d, coeffs[:0], sc.panelPartials)
		for j := range coeffs {
			coeffs[j] /= keptDN[j]
		}
		linalg.SubtractScaledBudget(bud, work, kept, coeffs)
		res := norm2P(bud, work, sc.partials)
		if res <= DropTolerance {
			dropped++
			continue
		}
		// Keep: normalize into the arena column and compute its D-norm in
		// the same fused pass.
		col := sc.cols[len(kept)]
		dn := linalg.ScaledCopyDDotBudget(bud, col, work, d, 1/res, sc.partials)
		kept = sc.cols[:len(kept)+1]
		keptDN = append(keptDN, dn)
		keptIdx = append(keptIdx, i)
	}
	sc.dNorms, sc.keptIdx, sc.coeffs = keptDN[:0], keptIdx[:0], coeffs[:0]

	out := linalg.ViewDense(sc.sOut.Data, n, len(keptIdx))
	for j := range keptIdx {
		linalg.CopyVecBudget(bud, out.Col(j), kept[j+1]) // skip the constant column
	}
	return Result{S: out, DNorms: keptDN[1:], Kept: keptIdx, Dropped: dropped}
}

// dDotP computes ⟨x,y⟩ or ⟨x,y⟩_D reusing the given reduction-partials
// buffer; results are bit-identical to linalg.Dot / linalg.DDot.
func dDotP(bud parallel.Budget, x, y, d, partials []float64) float64 {
	if d == nil {
		return linalg.DotBudget(bud, x, y, partials)
	}
	return linalg.DDotBudget(bud, x, d, y, partials)
}

// dNormP computes ⟨x,x⟩_D with the shared partials buffer.
func dNormP(bud parallel.Budget, x, d, partials []float64) float64 {
	return dDotP(bud, x, x, d, partials)
}

// norm2P computes ‖x‖₂ with the shared partials buffer.
func norm2P(bud parallel.Budget, x, partials []float64) float64 {
	return math.Sqrt(linalg.DotBudget(bud, x, x, partials))
}
