package linalg

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// Adversarial row counts for the blocked kernels: everything that can go
// wrong with a 4-row unroll, a 4×2 output tile, and the MinGrain-based
// row partition — sizes below, at, and just past each boundary.
var adversarialRows = []int{1, 2, 3, 4, 5, 7, 8, 9, 63, 1023, 1024, 1025, 2047, 2048, 2049, 4097}

// TestBlockedAtBBitwiseMatchesNaive is the blocked micro-kernel's
// correctness property: because each output element is accumulated by a
// single dedicated register in ascending row order, the 4×2-tiled kernel
// must be BITWISE equal to the naive reference — no tolerance — across
// shapes where n is not a multiple of the unroll, s and t are not
// multiples of the tile, and the parallel row partition kicks in.
func TestBlockedAtBBitwiseMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range adversarialRows {
		for _, st := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {3, 5}, {4, 2}, {5, 4}, {7, 9}, {8, 8}, {9, 3}} {
			s, u := st[0], st[1]
			a, b := NewDense(n, s), NewDense(n, u)
			for i := range a.Data {
				a.Data[i] = r.NormFloat64()
			}
			for i := range b.Data {
				b.Data[i] = r.NormFloat64()
			}
			want := NewDense(s, u)
			atbNaive(parallel.Live(), a, b, want, nil)
			got := AtBBudget(parallel.Live(), a, b, nil, nil)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d s=%d t=%d: AtB[%d] = %g, naive %g (must be bitwise equal)",
						n, s, u, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
	// The chunk/tile-boundary shapes, under every worker budget, with one
	// partials arena reused across shapes and budgets like a pooled
	// workspace reuses it.
	var partials []float64
	withProcs(4, func() {
		for _, sh := range adversarialAtBShapes {
			a, b := NewDense(sh.n, sh.s), NewDense(sh.n, sh.t)
			fillRand(a, r)
			fillRand(b, r)
			ref := atbNaive(parallel.FixedBudget(1), a, b, nil, nil)
			if need := ReduceBlocks(sh.n) * sh.s * sh.t; cap(partials) < need {
				partials = make([]float64, need)
			}
			for _, bud := range testBudgets() {
				assertDenseEqual(t, "private partials", AtBBudget(bud, a, b, nil, nil), ref)
				assertDenseEqual(t, "pooled partials", AtBBudget(bud, a, b, NewDense(sh.s, sh.t), partials), ref)
			}
		}
	})
}

// TestBlockedAtBSerialMatchesParallel pins the determinism contract for
// the row-parallel path: per-block partials are combined serially in
// block order, so for a fixed worker count the result is reproducible,
// and because each block is itself a single-accumulator sum the one-worker
// result equals the naive kernel exactly.
func TestBlockedAtBSerialMatchesParallel(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	n, s, u := 3*2048+17, 5, 3
	a, b := NewDense(n, s), NewDense(n, u)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	par := AtBBudget(parallel.Live(), a, b, nil, nil)
	wantPar := NewDense(s, u)
	atbNaive(parallel.Live(), a, b, wantPar, nil) // same worker count as par
	prev := runtime.GOMAXPROCS(1)
	ser := AtBBudget(parallel.Live(), a, b, nil, nil)
	wantSer := NewDense(s, u)
	atbNaive(parallel.Live(), a, b, wantSer, nil)
	runtime.GOMAXPROCS(prev)
	for i := range wantSer.Data {
		// Blocked equals naive bitwise at each worker count (same block
		// partition, same in-order combine)...
		if ser.Data[i] != wantSer.Data[i] {
			t.Fatalf("serial AtB[%d] = %g, naive %g", i, ser.Data[i], wantSer.Data[i])
		}
		if par.Data[i] != wantPar.Data[i] {
			t.Fatalf("parallel AtB[%d] = %g, naive %g", i, par.Data[i], wantPar.Data[i])
		}
		// ...and worker counts only reassociate the block combine, which
		// must stay within rounding of the serial sum.
		if !approxEq(par.Data[i], ser.Data[i], 1e-12) {
			t.Fatalf("parallel AtB[%d] = %g, serial %g", i, par.Data[i], ser.Data[i])
		}
	}
}

// TestDDotPanelMatchesReference checks the fused multi-dot against plain
// per-column dots over adversarial panel widths (k=0, k=1, partial
// chunks, many chunks) and row counts, with and without the D weighting.
// The fused kernel associates d with the shared vector rather than the
// column, so comparison is tolerance-based.
func TestDDotPanelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 5, 8, 1023, 2048, 2600} {
		for _, k := range []int{0, 1, 2, 7, 8, 9, 17, 63} {
			cols := make([][]float64, k)
			for j := range cols {
				cols[j] = randVec(n, r)
			}
			work := randVec(n, r)
			d := randVec(n, r)
			for i := range d {
				d[i] = 1 + d[i]*d[i] // positive weights
			}
			for _, dd := range [][]float64{nil, d} {
				got := DDotPanelBudget(parallel.Live(), cols, work, dd, nil, nil)
				if len(got) != k {
					t.Fatalf("n=%d k=%d: got %d dots", n, k, len(got))
				}
				for j := 0; j < k; j++ {
					var want float64
					for i := 0; i < n; i++ {
						w := work[i]
						if dd != nil {
							w *= dd[i]
						}
						want += cols[j][i] * w
					}
					if !approxEq(got[j], want, 1e-12) {
						t.Fatalf("n=%d k=%d d=%v: dot[%d] = %g, want %g", n, k, dd != nil, j, got[j], want)
					}
				}
			}
		}
	}
}

// TestSubtractScaledMatchesReference checks the fused multi-axpy against
// a sequence of plain Axpys over the same adversarial panel widths.
func TestSubtractScaledMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 4, 9, 1023, 2048, 2600} {
		for _, k := range []int{0, 1, 3, 8, 9, 16, 63} {
			cols := make([][]float64, k)
			coeffs := make([]float64, k)
			for j := range cols {
				cols[j] = randVec(n, r)
				coeffs[j] = r.NormFloat64()
			}
			work := randVec(n, r)
			want := append([]float64(nil), work...)
			for j := range cols {
				Axpy(-coeffs[j], cols[j], want)
			}
			SubtractScaledBudget(parallel.Live(), work, cols, coeffs)
			for i := range work {
				if !approxEq(work[i], want[i], 1e-12) {
					t.Fatalf("n=%d k=%d: work[%d] = %g, want %g", n, k, i, work[i], want[i])
				}
			}
		}
	}
}

// TestWidenMinArgmaxMatchesUnfused checks the fused BFS bookkeeping pass
// against the three separate kernels it replaces, including argmax
// tie-breaking (ties toward the smallest index) and parallel row counts.
func TestWidenMinArgmaxMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 2, 9, 1024, 2600, 5000} {
		src := make([]int32, n)
		dmin := make([]int32, n)
		for i := range src {
			src[i] = int32(r.Intn(7)) // small range forces argmax ties
			dmin[i] = int32(r.Intn(7))
		}
		wantMin := append([]int32(nil), dmin...)
		wantDst := make([]float64, n)
		Int32ToFloat64(wantDst, src)
		MinUpdateInt32(wantMin, src)
		wantIdx := 0
		for i, v := range wantMin {
			if v > wantMin[wantIdx] {
				wantIdx = i
			}
		}
		dst := make([]float64, n)
		gotIdx := WidenMinArgmax(dst, dmin, src)
		if gotIdx != wantIdx {
			t.Fatalf("n=%d: argmax %d, want %d", n, gotIdx, wantIdx)
		}
		for i := range dmin {
			if dmin[i] != wantMin[i] || dst[i] != wantDst[i] {
				t.Fatalf("n=%d: row %d fused (%d,%g), unfused (%d,%g)", n, i, dmin[i], dst[i], wantMin[i], wantDst[i])
			}
		}
	}
}

// TestScaledCopyDDotMatchesUnfused checks the fused keep-step kernel
// (copy+scale+D-norm in one pass) against the unfused sequence, bitwise:
// both scale first and accumulate in ascending index order.
func TestScaledCopyDDotMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 3, 1024, 2600} {
		src := randVec(n, r)
		d := randVec(n, r)
		a := 1 / (1 + r.Float64())
		want := make([]float64, n)
		CopyVec(want, src)
		Scale(a, want)
		for _, dd := range [][]float64{nil, d} {
			wantDN := 0.0
			for i := range want {
				w := want[i] * want[i]
				if dd != nil {
					w = want[i] * dd[i] * want[i]
				}
				wantDN += w
			}
			dst := make([]float64, n)
			dn := ScaledCopyDDotBudget(parallel.Live(), dst, src, dd, a, nil)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d: dst[%d] = %g, want %g", n, i, dst[i], want[i])
				}
			}
			if !approxEq(dn, wantDN, 1e-12) {
				t.Fatalf("n=%d d=%v: dnorm %g, want %g", n, dd != nil, dn, wantDN)
			}
		}
	}
}
