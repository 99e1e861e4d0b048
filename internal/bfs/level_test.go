package bfs

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// maxDegreeVertex returns the vertex of largest degree (lowest id on
// ties), a source inside the giant component of a kron graph.
func maxDegreeVertex(g *graph.CSR) int32 {
	best := int32(0)
	for v := int32(1); int(v) < g.NumV; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// TestDistancesIdenticalAcrossBudgets: the per-level serial-or-parallel
// choice never changes a result. At 1, 2 and 4 workers Runner.Distances
// returns bfs.Serial's distances and the 1-worker run's Stats, on graphs
// whose levels all run serially (road, path), mix serial and parallel
// levels (kron direction-optimized, urand kept top-down) or jump
// straight to bottom-up (star). The counters prove which kind ran at 2
// workers, so a test of the parallel path cannot pass on serial levels.
func TestDistancesIdenticalAcrossBudgets(t *testing.T) {
	kron := gen.Kron(13, 8, 3)
	cases := []struct {
		name string
		g    *graph.CSR
		opt  Options
		src  int32
		// which level kinds must have run at 2 workers
		wantSerial, wantParallel bool
	}{
		{"road", gen.Road(64, 64, 1), Options{}, 0, true, false},
		{"kron13", kron, Options{}, maxDegreeVertex(kron), true, true},
		// α=1 stays top-down until a frontier's edges exceed all unexplored
		// ones, so wide top-down levels take the CAS fan-out.
		{"urand15-topdown", gen.Urand(15, 8, 2), Options{Alpha: 1}, 0, true, true},
		{"path", gen.Path(5000), Options{}, 0, true, false},
		{"star", gen.Star(20000), Options{}, 1, true, true},
	}
	for _, c := range cases {
		n := c.g.NumV
		want := make([]int32, n)
		Serial(c.g, c.src, want)
		got := make([]int32, n)
		var ref Stats
		for _, p := range []int{1, 2, 4} {
			r := NewRunnerBudget(c.g, c.opt, nil, parallel.FixedBudget(p))
			st := r.Distances(c.src, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: dist[%d] = %d, want %d", c.name, p, i, got[i], want[i])
				}
			}
			if p == 1 {
				ref = st
				if r.parallelLevels != 0 {
					t.Fatalf("%s: %d levels fanned out at 1 worker", c.name, r.parallelLevels)
				}
			} else if st != ref {
				t.Fatalf("%s workers=%d: stats %+v, want the 1-worker %+v", c.name, p, st, ref)
			}
			if r.serialLevels+r.parallelLevels != st.Levels {
				t.Fatalf("%s workers=%d: %d serial + %d parallel levels, want %d",
					c.name, p, r.serialLevels, r.parallelLevels, st.Levels)
			}
			if p != 2 {
				continue
			}
			if (r.serialLevels > 0) != c.wantSerial || (r.parallelLevels > 0) != c.wantParallel {
				t.Fatalf("%s workers=2: %d serial and %d parallel levels, want serial=%v parallel=%v",
					c.name, r.serialLevels, r.parallelLevels, c.wantSerial, c.wantParallel)
			}
			if c.opt.Alpha == 1 && r.parallelLevels <= st.BottomUpSteps {
				t.Fatalf("%s: %d parallel levels, %d bottom-up steps: no top-down level fanned out",
					c.name, r.parallelLevels, st.BottomUpSteps)
			}
		}
	}
}
