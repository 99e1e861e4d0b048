//go:build perf

package kernelbench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestParallelEfficiencyGate gates whole-layout scaling on the paper's
// headline graph shape: kron 2^18 at Workers() against 1 worker. The
// kernel-level gates live with their oracles in linalg, ortho and bfs.
func TestParallelEfficiencyGate(t *testing.T) {
	gate := Parallel(t)
	g := gen.Kron(18, 16, 102)
	run := func(p int) func() {
		opt := core.Options{Subspace: 10, Seed: 42, Workers: p, SkipConnectivityCheck: true}
		return func() {
			if _, _, err := core.ParHDE(g, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	gate.Check("layout_parallel", Speedup(3, run(1), run(gate.Workers())))
}
