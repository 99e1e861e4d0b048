package ortho

import (
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// sweeps are the DOrtho procedures under test: the production methods
// and the reference sweeps.
var sweeps = []struct {
	name string
	run  func(bud parallel.Budget, b *linalg.Dense, d []float64, sc *Scratch) Result
}{
	{"MGS", func(bud parallel.Budget, b *linalg.Dense, d []float64, sc *Scratch) Result {
		return DOrthogonalizeBudget(bud, b, d, MGS, sc)
	}},
	{"CGS", func(bud parallel.Budget, b *linalg.Dense, d []float64, sc *Scratch) Result {
		return DOrthogonalizeBudget(bud, b, d, CGS, sc)
	}},
	{"MGS-flat", mgsFlat},
	{"MGS-L1", mgsLevel1},
}

// TestDOrthogonalizeBudgetInvariance: every method and reference sweep
// produces bitwise identical kept columns, D-norms, and drop sets for
// worker budgets 1, 2, 4 and the live budget, with and without a degree
// weighting.
func TestDOrthogonalizeBudgetInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	n, s := 9000, 9
	degrees := randDegrees(n, 3)
	budgets := []parallel.Budget{
		parallel.FixedBudget(1),
		parallel.FixedBudget(2),
		parallel.FixedBudget(4),
		parallel.Live(),
	}
	for _, sw := range sweeps {
		for _, d := range [][]float64{nil, degrees} {
			ref := sw.run(parallel.FixedBudget(1), randMatrix(n, s, 7), d, nil)
			for _, bud := range budgets {
				got := sw.run(bud, randMatrix(n, s, 7), d, nil)
				if len(got.Kept) != len(ref.Kept) || got.Dropped != ref.Dropped {
					t.Fatalf("%v workers=%d: kept %d/dropped %d, want %d/%d",
						sw.name, bud.Workers(), len(got.Kept), got.Dropped, len(ref.Kept), ref.Dropped)
				}
				for j, k := range ref.Kept {
					if got.Kept[j] != k {
						t.Fatalf("%v workers=%d: Kept[%d] = %d, want %d", sw.name, bud.Workers(), j, got.Kept[j], k)
					}
					if got.DNorms[j] != ref.DNorms[j] {
						t.Fatalf("%v workers=%d: DNorms[%d] %v != %v", sw.name, bud.Workers(), j, got.DNorms[j], ref.DNorms[j])
					}
				}
				for k := range ref.S.Data {
					if got.S.Data[k] != ref.S.Data[k] {
						t.Fatalf("%v d=%v workers=%d: S.Data[%d] diverged: %v != %v",
							sw.name, d != nil, bud.Workers(), k, got.S.Data[k], ref.S.Data[k])
					}
				}
			}
		}
	}
}

// TestMGSPackedMatchesUnpackedSharedScratch: the production MGS sweep
// over the packed store and the flat-arena oracle produce bitwise
// identical results while alternating mid-run over one shared pooled
// scratch across worker budgets — the reuse pattern a workspace-backed
// job worker produces, and the one where stale packed state or a
// misrouted arena would surface. CGS, which keeps its columns in the
// flat arena, runs through the same scratch between them.
func TestMGSPackedMatchesUnpackedSharedScratch(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	n, s := 9000, 9
	degrees := randDegrees(n, 3)
	sc := NewScratch(n, s)
	for _, d := range [][]float64{nil, degrees} {
		// Non-pooled reference: fresh storage, nothing aliased.
		ref := mgsFlat(parallel.FixedBudget(1), randMatrix(n, s, 7), d, nil)
		cgsRef := DOrthogonalizeBudget(parallel.FixedBudget(1), randMatrix(n, s, 7), d, CGS, nil)
		for _, bud := range []parallel.Budget{
			parallel.FixedBudget(1),
			parallel.FixedBudget(2),
			parallel.FixedBudget(4),
			parallel.Live(),
		} {
			for _, method := range []string{"MGS", "MGS-flat", "CGS", "MGS"} {
				var got Result
				switch method {
				case "MGS":
					got = DOrthogonalizeBudget(bud, randMatrix(n, s, 7), d, MGS, sc)
				case "MGS-flat":
					got = mgsFlat(bud, randMatrix(n, s, 7), d, sc)
				case "CGS":
					got = DOrthogonalizeBudget(bud, randMatrix(n, s, 7), d, CGS, sc)
					if got.Dropped != cgsRef.Dropped || !equalFloats(got.S.Data, cgsRef.S.Data) || !equalFloats(got.DNorms, cgsRef.DNorms) {
						t.Fatalf("CGS workers=%d d=%v: diverged from the fresh-scratch run", bud.Workers(), d != nil)
					}
					continue
				}
				if len(got.Kept) != len(ref.Kept) || got.Dropped != ref.Dropped {
					t.Fatalf("%v workers=%d: kept %d/dropped %d, want %d/%d",
						method, bud.Workers(), len(got.Kept), got.Dropped, len(ref.Kept), ref.Dropped)
				}
				for j := range ref.DNorms {
					if got.DNorms[j] != ref.DNorms[j] {
						t.Fatalf("%v workers=%d: DNorms[%d] %v != %v",
							method, bud.Workers(), j, got.DNorms[j], ref.DNorms[j])
					}
				}
				for k := range ref.S.Data {
					if got.S.Data[k] != ref.S.Data[k] {
						t.Fatalf("%v d=%v workers=%d: S.Data[%d] diverged: %v != %v",
							method, d != nil, bud.Workers(), k, got.S.Data[k], ref.S.Data[k])
					}
				}
			}
		}
	}
}

// TestIncrementalBudgetInvariance: the coupled-pipeline incremental
// orthogonalizer matches the serial reference bitwise for every budget.
func TestIncrementalBudgetInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	n, s := 9000, 8
	degrees := randDegrees(n, 5)
	run := func(bud parallel.Budget, d []float64) *Incremental {
		inc := NewIncrementalBudget(bud, n, s, d, nil)
		for j := 0; j < s; j++ {
			inc.Add(randMatrix(n, 1, int64(20+j)).Col(0))
		}
		return inc
	}
	for _, d := range [][]float64{nil, degrees} {
		ref := run(parallel.FixedBudget(1), d)
		refRes := ref.Result()
		for _, p := range []int{2, 4} {
			got := run(parallel.FixedBudget(p), d)
			res := got.Result()
			if len(res.Kept) != len(refRes.Kept) {
				t.Fatalf("workers=%d: kept %d, want %d", p, len(res.Kept), len(refRes.Kept))
			}
			for k := range refRes.S.Data {
				if res.S.Data[k] != refRes.S.Data[k] {
					t.Fatalf("workers=%d d=%v: S.Data[%d] diverged", p, d != nil, k)
				}
			}
			for j := range refRes.DNorms {
				if res.DNorms[j] != refRes.DNorms[j] {
					t.Fatalf("workers=%d: DNorms[%d] diverged", p, j)
				}
			}
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
