package ortho

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Incremental performs panel-blocked Modified Gram-Schmidt one column at
// a time, so the BFS phase and the DOrtho phase can be coupled: each
// distance vector is orthogonalized (and either kept or dropped) as soon
// as its traversal finishes, and the raw O(sn) distance matrix never
// needs to be stored. §4.4 notes this is exactly the capability CGS gives
// up ("the use of CGS requires all distance vectors to be precomputed…
// whereas the default procedure can also be executed with a coupled BFS
// and D-orthogonalization steps"). The batch MGS sweep of
// DOrthogonalizeBudget is a loop of Add, so coupled and decoupled runs
// are bitwise identical by construction.
//
// Kept columns live in the scratch's tile-major packed store: each is
// packed once, by the fused scale-copy-D-norm write that keeps it, and
// every later projection streams it from padded cache-resident tile
// slots instead of n-strided flat columns.
type Incremental struct {
	n       int
	d       []float64 // nil = plain orthogonalization
	bud     parallel.Budget
	sc      *Scratch
	pk      *linalg.PackedCols
	keptDN  []float64
	keptIdx []int
	dropped int
	seen    int
}

// NewIncrementalBudget starts a coupled orthogonalization of up to s
// length-n vectors with D-inner products diag(d) (nil for plain inner
// products), running over sc's buffers (nil allocates private scratch).
// The constant direction 1/√n is pre-seeded. Storage for all s columns
// is sized here, so Add never grows it; with a pooled scratch the whole
// coupled DOrtho phase performs no O(n)-sized allocations and Result
// aliases scratch storage (valid until the scratch's next use). Every
// Add reuses bud, so the orthogonalization fan-out is pinned for the
// whole run.
func NewIncrementalBudget(bud parallel.Budget, n, s int, d []float64, sc *Scratch) *Incremental {
	inc := newIncremental(bud, n, s, d, sc)
	return &inc
}

// newIncremental is NewIncrementalBudget by value, so the batch sweep
// keeps its Incremental on the stack.
func newIncremental(bud parallel.Budget, n, s int, d []float64, sc *Scratch) Incremental {
	if sc == nil {
		sc = NewScratch(n, s)
	} else {
		sc.Ensure(n, s)
	}
	pk := sc.ensurePacked()
	// s0 = 1/√n, packed through the fused append (a·1.0 reproduces the
	// fill value exactly, and the append's D-norm pass is bitwise
	// dNormP).
	linalg.FillBudget(bud, sc.work, 1/math.Sqrt(float64(n)))
	return Incremental{
		n:       n,
		d:       d,
		bud:     bud,
		sc:      sc,
		pk:      pk,
		keptDN:  append(sc.dNorms[:0], pk.AppendScaledDDotBudget(bud, sc.work, d, 1, sc.partials)),
		keptIdx: sc.keptIdx[:0],
	}
}

// Add orthogonalizes col against everything kept so far and keeps it if it
// survives the drop tolerance. col is not modified. Reports whether the
// column was kept.
func (inc *Incremental) Add(col []float64) bool {
	if len(col) != inc.n {
		panic("ortho: Incremental.Add dimension mismatch")
	}
	idx := inc.seen
	inc.seen++
	sc, bud, pk := inc.sc, inc.bud, inc.pk
	work := sc.work
	// Pre-normalize so the drop tolerance is scale-free (Algorithm 1
	// normalizes each column before orthogonalizing).
	nrm := norm2P(bud, col, sc.partials)
	if nrm <= DropTolerance {
		inc.dropped++
		return false
	}
	linalg.ScaledCopyBudget(bud, work, col, 1/nrm)
	// One fused multi-dot and one fused multi-axpy per PanelCols-wide
	// panel of kept columns.
	coeffs := sc.coeffs[:0]
	k := pk.Len()
	for p0 := 0; p0 < k; p0 += linalg.PanelCols {
		p1 := min(p0+linalg.PanelCols, k)
		coeffs = pk.DDotPanelRangeBudget(bud, p0, p1, work, inc.d, coeffs[:0], sc.panelPartials)
		for j := range coeffs {
			coeffs[j] /= inc.keptDN[p0+j]
		}
		pk.SubtractScaledRangeBudget(bud, p0, p1, work, coeffs)
	}
	sc.coeffs = coeffs[:0]
	res := norm2P(bud, work, sc.partials)
	if res <= DropTolerance {
		inc.dropped++
		return false
	}
	// Keep: normalize into the packed store and compute the D-norm in the
	// same fused pass.
	inc.keptDN = append(inc.keptDN, pk.AppendScaledDDotBudget(bud, work, inc.d, 1/res, sc.partials))
	inc.keptIdx = append(inc.keptIdx, idx)
	return true
}

// Result packages the kept columns (constant column excluded) as a
// Result aliasing the scratch's output storage. The Incremental must not
// be used after.
func (inc *Incremental) Result() Result {
	sc := inc.sc
	sc.dNorms, sc.keptIdx = inc.keptDN[:0], inc.keptIdx[:0]
	out := linalg.ViewDense(sc.sOut.Data, inc.n, len(inc.keptIdx))
	for j := range inc.keptIdx {
		inc.pk.CopyColIntoBudget(inc.bud, out.Col(j), j+1) // skip the constant column
	}
	return Result{S: out, DNorms: inc.keptDN[1:], Kept: inc.keptIdx, Dropped: inc.dropped}
}
