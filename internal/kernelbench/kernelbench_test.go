//go:build perf

package kernelbench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestParallelEfficiencyGate gates whole-layout scaling at Workers()
// against 1 worker on the paper's two traversal extremes: kron 2^18,
// low-diameter and skewed, and road 512x512 at s=10, whose ~12k mostly
// top-down BFS levels are each too small to fan out. A road ratio below
// its floor means the 2-worker layout fell well behind the 1-worker one,
// as it did while every level fanned out. The
// kernel-level gates live with their oracles in linalg, ortho and bfs.
func TestParallelEfficiencyGate(t *testing.T) {
	gate := Parallel(t)
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{
		{"layout_parallel", gen.Kron(18, 16, 102)},
		{"layout_road_parallel", gen.Road(512, 512, 1)},
	} {
		run := func(p int) func() {
			opt := core.Options{Subspace: 10, Seed: 42, Workers: p, SkipConnectivityCheck: true}
			return func() {
				if _, _, err := core.ParHDE(c.g, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
		gate.Check(c.name, Speedup(3, run(1), run(gate.Workers())))
	}
}
