//go:build perf

package ortho

import (
	"testing"

	"repro/internal/kernelbench"
	"repro/internal/parallel"
)

// TestKernelBudgetGate measures the single-core gain of panel MGS over
// the Level-1 oracle, and the packed store's single-core overhead against
// the flat-arena oracle (packing is pure copy cost with one worker, so
// that baseline sits just below 1.0 and catches the overhead growing).
func TestKernelBudgetGate(t *testing.T) {
	gate := kernelbench.SingleCore(t)
	serial := parallel.FixedBudget(1)
	{
		n, s := 1<<17, 48
		b, d := randMatrix(n, s, 3), randDegrees(n, 4)
		sc := NewScratch(n, s)
		gate.Check("panel_mgs_vs_level1", kernelbench.Speedup(5,
			func() { mgsLevel1(serial, b, d, sc) },
			func() { DOrthogonalizeBudget(serial, b, d, MGS, sc) }))
	}
	{
		n, s := 1<<17, 48
		b, d := randMatrix(n, s, 23), randDegrees(n, 24)
		sc := NewScratch(n, s)
		gate.Check("panel_mgs_packed_vs_flat", kernelbench.Speedup(5,
			func() { mgsFlat(serial, b, d, sc) },
			func() { DOrthogonalizeBudget(serial, b, d, MGS, sc) }))
	}
}

// TestParallelEfficiencyGate measures panel MGS at Workers() against its
// 1-worker run, and against the flat-arena oracle at the same worker
// count — where workers contend for DRAM, the packed store must win.
func TestParallelEfficiencyGate(t *testing.T) {
	gate := kernelbench.Parallel(t)
	serial := parallel.FixedBudget(1)
	par := parallel.FixedBudget(gate.Workers())
	n, s := 1<<19, 48
	b, d := randMatrix(n, s, 14), randDegrees(n, 13)
	sc := NewScratch(n, s)
	packedPar := func() { DOrthogonalizeBudget(par, b, d, MGS, sc) }
	gate.Check("panel_mgs_parallel", kernelbench.Speedup(5, func() { DOrthogonalizeBudget(serial, b, d, MGS, sc) }, packedPar))
	gate.Check("panel_mgs_packed", kernelbench.Speedup(5, func() { mgsFlat(par, b, d, sc) }, packedPar))
}

// BenchmarkDOrtho times every sweep of the sweeps table (the production
// methods and the reference sweeps); run with
// go test -tags perf -run xxx -bench DOrtho ./internal/ortho/.
func BenchmarkDOrtho(b *testing.B) {
	n, s := 1<<15, 48
	m, d := randMatrix(n, s, 3), randDegrees(n, 4)
	for _, sw := range sweeps {
		b.Run(sw.name, func(b *testing.B) {
			sc := NewScratch(n, s)
			for i := 0; i < b.N; i++ {
				sw.run(parallel.Live(), m, d, sc)
			}
		})
	}
}
