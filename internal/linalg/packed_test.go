package linalg

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
)

// Adversarial equivalence suite for the packed and tiled kernels. The
// hazard is silent numerical divergence on shapes where the chunk, tile,
// and panel boundaries interact — row counts straddling PackRows and
// TileRows, degenerate column counts, empty inputs — so every test here
// compares bitwise against a reference kernel on exactly those shapes,
// under every worker budget, with arenas reused across calls the way a
// pooled workspace reuses them.

// adversarialAtBShapes are the (n, s, t) cases AᵀB must survive bitwise:
// rows not a multiple of the pack chunk or the reduction tile, rows
// below one chunk/tile, single and odd column counts (micro-kernel
// tails), and the empty-row matrix.
var adversarialAtBShapes = []struct{ n, s, t int }{
	{0, 3, 2},                // empty rows: output must still zero
	{1, 1, 1},                // scalar corner everywhere
	{5, 1, 3},                // t odd, s=1: 1x2 + 1x1 tails only
	{100, 7, 5},              // n < PackRows, both columns odd
	{PackRows - 1, 4, 2},     // one short chunk
	{PackRows, 3, 3},         // exactly one chunk
	{PackRows + 1, 8, 8},     // chunk + 1-row tail
	{3*PackRows + 17, 5, 4},  // several chunks + ragged tail
	{TileRows, 7, 2},         // exactly one reduction tile
	{TileRows + 1, 2, 7},     // first multi-tile shape
	{2*TileRows + 317, 9, 3}, // tiles and chunks both ragged
	{3*TileRows + 1, 12, 12}, // wide panel, ragged tiles
}

func fillRand(d *Dense, rng *rand.Rand) {
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
}

func assertDenseEqual(t *testing.T, tag string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for k := range want.Data {
		if got.Data[k] != want.Data[k] {
			t.Fatalf("%s: element %d: %v != %v", tag, k, got.Data[k], want.Data[k])
		}
	}
}

// TestLapMulPackedBudgetInvariance: the fused packed TripleProd kernel
// matches the two-pass oracle bitwise for every budget, sharing one
// arena across budgets and shapes.
func TestLapMulPackedBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	arena := &PackArena{}
	withProcs(4, func() {
		for _, n := range []int{97, PackRows + 3, 2*TileRows + 13} {
			g := gen.Path(n)
			deg := g.WeightedDegrees()
			for _, cols := range []int{1, 6, 9} {
				s := NewDense(g.NumV, cols)
				fillRand(s, rng)
				ref := lapMulTwoPass(parallel.FixedBudget(1), g, deg, s, nil, nil, nil)
				srm := make([]float64, g.NumV*cols)
				for _, bud := range testBudgets() {
					got := LapMulDenseTiledPackedBudget(bud, g, deg, s, nil, srm, arena)
					assertDenseEqual(t, "packed vs tiled LapMul", got, ref)
				}
				got := LapMulDenseTiledPackedBudget(parallel.Live(), g, deg, s, nil, nil, nil)
				assertDenseEqual(t, "private storage", got, ref)
			}
		}
	})
}

// TestPackedColsBitwiseVsFlat: every PackedCols kernel — the fused
// append, the panel multi-dot over a column range, and the fused
// multi-axpy — reproduces its flat counterpart bitwise, on row counts
// chosen to make tile widths ragged and column counts exercising both
// the full-width and tail chunks.
func TestPackedColsBitwiseVsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var pc PackedCols // zero value + Ensure, like a pooled scratch
	withProcs(4, func() {
		for _, n := range []int{1, 37, TileRows, 2*TileRows + 317} {
			for _, k := range []int{1, PanelCols - 1, PanelCols, PanelCols + 3, 2*PanelCols + 1} {
				cols := make([][]float64, k)
				flat := make([][]float64, k)
				srcs := make([][]float64, k)
				for j := range cols {
					srcs[j] = randVec(n, rng)
					flat[j] = make([]float64, n)
				}
				d := randVec(n, rng)
				work := randVec(n, rng)
				partials := make([]float64, ReduceBlocks(n)*(k+1))
				for _, bud := range testBudgets() {
					pc.Ensure(n, k)
					// Append every column; D-norms must match the flat fused
					// keep-step kernel, and the stored bits must round-trip.
					for j := range srcs {
						a := 0.5 + rng.Float64()
						want := ScaledCopyDDotBudget(bud, flat[j], srcs[j], d, a, partials)
						got := pc.AppendScaledDDotBudget(bud, srcs[j], d, a, partials)
						if got != want {
							t.Fatalf("n=%d k=%d workers=%d: append D-norm %v != %v", n, k, bud.Workers(), got, want)
						}
						unpacked := make([]float64, n)
						pc.CopyColInto(unpacked, j)
						for i := range unpacked {
							if unpacked[i] != flat[j][i] {
								t.Fatalf("n=%d k=%d col=%d: stored bits diverge at %d", n, k, j, i)
							}
						}
						cols[j] = flat[j]
					}
					if pc.Len() != k {
						t.Fatalf("Len %d != %d", pc.Len(), k)
					}
					// Panel multi-dot over every sub-range the MGS sweep uses.
					for p0 := 0; p0 < k; p0 += PanelCols {
						p1 := p0 + PanelCols
						if p1 > k {
							p1 = k
						}
						want := DDotPanelBudget(bud, cols[p0:p1], work, d, nil, partials)
						got := pc.DDotPanelRangeBudget(bud, p0, p1, work, d, nil, partials)
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("n=%d k=%d workers=%d panel %d:%d dot[%d] %v != %v", n, k, bud.Workers(), p0, p1, j, got[j], want[j])
							}
						}
						wantPlain := DDotPanelBudget(bud, cols[p0:p1], work, nil, nil, partials)
						gotPlain := pc.DDotPanelRangeBudget(bud, p0, p1, work, nil, nil, partials)
						for j := range wantPlain {
							if gotPlain[j] != wantPlain[j] {
								t.Fatalf("plain panel %d:%d dot[%d] diverged", p0, p1, j)
							}
						}
						// Fused multi-axpy: identical residual updates.
						coeffs := make([]float64, p1-p0)
						for j := range coeffs {
							coeffs[j] = rng.NormFloat64()
						}
						wantWork := append([]float64(nil), work...)
						gotWork := append([]float64(nil), work...)
						SubtractScaledBudget(bud, wantWork, cols[p0:p1], coeffs)
						pc.SubtractScaledRangeBudget(bud, p0, p1, gotWork, coeffs)
						for i := range wantWork {
							if gotWork[i] != wantWork[i] {
								t.Fatalf("n=%d k=%d workers=%d panel %d:%d: subtract[%d] %v != %v", n, k, bud.Workers(), p0, p1, i, gotWork[i], wantWork[i])
							}
						}
					}
					// CopyColIntoBudget matches the serial unpack.
					dst1, dst2 := make([]float64, n), make([]float64, n)
					pc.CopyColInto(dst1, k-1)
					pc.CopyColIntoBudget(bud, dst2, k-1)
					for i := range dst1 {
						if dst1[i] != dst2[i] {
							t.Fatalf("CopyColIntoBudget diverged at %d", i)
						}
					}
				}
			}
		}
	})
}

// TestPackedColsRangeChecks: the packed store panics on out-of-range
// column access instead of reading stale slots, and on an append past
// its capacity instead of overwriting the next tile's slots.
func TestPackedColsRangeChecks(t *testing.T) {
	var pc PackedCols
	pc.Ensure(16, 2)
	pc.AppendScaledDDotBudget(parallel.FixedBudget(1), make([]float64, 16), nil, 1, nil)
	for name, f := range map[string]func(){
		"dot": func() { pc.DDotPanelRangeBudget(parallel.FixedBudget(1), 0, 2, make([]float64, 16), nil, nil, nil) },
		"subtract": func() {
			pc.SubtractScaledRangeBudget(parallel.FixedBudget(1), 0, 2, make([]float64, 16), make([]float64, 2))
		},
		"mismatch": func() {
			pc.SubtractScaledRangeBudget(parallel.FixedBudget(1), 0, 1, make([]float64, 16), make([]float64, 2))
		},
		"full": func() {
			var full PackedCols
			full.Ensure(16, 1)
			for i := 0; i < 2; i++ {
				full.AppendScaledDDotBudget(parallel.FixedBudget(1), make([]float64, 16), nil, 1, nil)
			}
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzAtBPackedEquivalence fuzzes (n, s, t, seed) over shapes around the
// PackRows chunk and TileRows tile boundaries and asserts AtBBudget is
// bitwise equal to the naive oracle under serial, parallel, and live
// budgets with a shared partials arena — the randomized arm of the
// adversarial shape table.
func FuzzAtBPackedEquivalence(f *testing.F) {
	f.Add(0, 3, 2, int64(1))
	f.Add(1, 1, 1, int64(2))
	f.Add(PackRows+1, 8, 8, int64(3))
	f.Add(TileRows+1, 5, 1, int64(4))
	f.Add(2*TileRows+317, 9, 3, int64(5))
	var partials []float64
	f.Fuzz(func(t *testing.T, n, s, u int, seed int64) {
		// Clamp to shapes that stress boundaries without slowing the fuzzer:
		// rows around a few tiles, columns around the 4×2 micro-kernel tile.
		if n < 0 {
			n = -n
		}
		if s < 0 {
			s = -s
		}
		if u < 0 {
			u = -u
		}
		n %= 2*TileRows + 512
		s = s%17 + 1
		u = u%17 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := NewDense(n, s), NewDense(n, u)
		fillRand(a, rng)
		fillRand(b, rng)
		ref := atbNaive(parallel.FixedBudget(1), a, b, nil, nil)
		if need := ReduceBlocks(n) * s * u; cap(partials) < need {
			partials = make([]float64, need)
		}
		for _, bud := range []parallel.Budget{parallel.FixedBudget(1), parallel.FixedBudget(3), parallel.Live()} {
			got := AtBBudget(bud, a, b, nil, partials)
			for k := range ref.Data {
				if got.Data[k] != ref.Data[k] {
					t.Fatalf("n=%d s=%d t=%d workers=%d: AtB[%d] %v != naive %v",
						n, s, u, bud.Workers(), k, got.Data[k], ref.Data[k])
				}
			}
		}
	})
}
