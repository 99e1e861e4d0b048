package ortho

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// orthogonalize is DOrthogonalizeBudget on the live budget with private
// scratch.
func orthogonalize(b *linalg.Dense, d []float64, method Method) Result {
	return DOrthogonalizeBudget(parallel.Live(), b, d, method, nil)
}

// mgsFlat and mgsLevel1 are the reference MGS sweeps the production
// sweep is tested and gated against; both run over the scratch's flat
// kept-column arena, where every kept column sits n floats from the
// next. mgsFlat projects panel by panel with the flat fused kernels and
// is bitwise identical to MGS. mgsLevel1 is the paper's unblocked
// procedure — one dot and one axpy pass per kept column — and agrees
// with MGS to rounding.
func mgsFlat(bud parallel.Budget, b *linalg.Dense, d []float64, sc *Scratch) Result {
	return flatSweep(bud, b, d, sc, false)
}

func mgsLevel1(bud parallel.Budget, b *linalg.Dense, d []float64, sc *Scratch) Result {
	return flatSweep(bud, b, d, sc, true)
}

func flatSweep(bud parallel.Budget, b *linalg.Dense, d []float64, sc *Scratch, level1 bool) Result {
	n, s := b.Rows, b.Cols
	if sc == nil {
		sc = NewScratch(n, s)
	} else {
		sc.Ensure(n, s)
	}
	sc.ensureCols()
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
		nrm := norm2P(bud, src, sc.partials)
		if nrm <= DropTolerance {
			dropped++
			continue
		}
		linalg.ScaledCopyBudget(bud, work, src, 1/nrm)
		if level1 {
			for j := range kept {
				c := dDotP(bud, kept[j], work, d, sc.partials) / keptDN[j]
				linalg.AxpyBudget(bud, -c, kept[j], work)
			}
		} else {
			for p0 := 0; p0 < len(kept); p0 += linalg.PanelCols {
				panel := kept[p0:min(p0+linalg.PanelCols, len(kept))]
				coeffs = linalg.DDotPanelBudget(bud, panel, work, d, coeffs[:0], sc.panelPartials)
				for j := range coeffs {
					coeffs[j] /= keptDN[p0+j]
				}
				linalg.SubtractScaledBudget(bud, work, panel, coeffs)
			}
		}
		res := norm2P(bud, work, sc.partials)
		if res <= DropTolerance {
			dropped++
			continue
		}
		col := sc.cols[len(kept)]
		keptDN = append(keptDN, linalg.ScaledCopyDDotBudget(bud, col, work, d, 1/res, sc.partials))
		kept = sc.cols[:len(kept)+1]
		keptIdx = append(keptIdx, i)
	}
	sc.dNorms, sc.keptIdx, sc.coeffs = keptDN[:0], keptIdx[:0], coeffs[:0]
	out := linalg.ViewDense(sc.sOut.Data, n, len(keptIdx))
	for j := range keptIdx {
		linalg.CopyVecBudget(bud, out.Col(j), kept[j+1])
	}
	return Result{S: out, DNorms: keptDN[1:], Kept: keptIdx, Dropped: dropped}
}
