package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/ortho"
	"repro/internal/workspace"
)

// TestParHDEBitIdenticalAcrossWorkerBudgets is the layout-level budget
// invariance property: for a fixed seed, the coordinates are bitwise
// identical whether the run uses 1, 2, or 4 workers, decoupled or
// coupled, fresh allocations or a pooled workspace shared across all
// budgets.
func TestParHDEBitIdenticalAcrossWorkerBudgets(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	graphs := []struct {
		name string
		opt  Options
	}{
		{"decoupled", Options{Subspace: 8, Seed: 11}},
		{"coupled", Options{Subspace: 8, Seed: 11, Coupled: true}},
		{"decoupled-cgs", Options{Subspace: 8, Seed: 11, Ortho: ortho.CGS}},
	}
	g := gen.Kron(13, 8, 3) // n=8192: spans two reduction tiles, admits 4-way block fan-out
	ws := workspace.New()   // shared across budgets: arenas must be budget-independent
	for _, c := range graphs {
		opt := c.opt
		opt.Workers = 1
		ref, refRep, err := ParHDE(g, opt)
		if err != nil {
			t.Fatalf("%s workers=1: %v", c.name, err)
		}
		if refRep.Workers != 1 {
			t.Fatalf("%s: Report.Workers = %d, want 1", c.name, refRep.Workers)
		}
		for _, p := range []int{2, 4} {
			opt := c.opt
			opt.Workers = p
			opt.Workspace = ws
			lay, rep, err := ParHDE(g, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, p, err)
			}
			if rep.Workers != p {
				t.Fatalf("%s workers=%d: Report.Workers = %d", c.name, p, rep.Workers)
			}
			if len(lay.Coords.Data) != len(ref.Coords.Data) {
				t.Fatalf("%s workers=%d: coordinate count diverged", c.name, p)
			}
			for k := range ref.Coords.Data {
				if lay.Coords.Data[k] != ref.Coords.Data[k] {
					t.Fatalf("%s workers=%d: Coords[%d] = %v, want %v (bitwise)",
						c.name, p, k, lay.Coords.Data[k], ref.Coords.Data[k])
				}
			}
		}
	}
}

// TestParHDEPackedMatchesUnpacked: production runs at 4 workers through
// one shared workspace equal bit for bit the layouts recomputed with the
// unpacked oracles — the column-wise and two-pass tiled L·S. The runs
// alternate subspace widths over the same workspace, the case where a
// stale packed arena or misrouted scratch buffer would leak one run's
// state into the next.
func TestParHDEPackedMatchesUnpacked(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := gen.Kron(13, 8, 3)
	ws := workspace.New()
	for i, c := range []struct {
		s  int
		ls lsOracle
	}{
		{8, lsColumnwise},
		{5, lsTwoPass},
		{8, lsTwoPass},
		{5, lsColumnwise},
	} {
		opt := Options{Subspace: c.s, Seed: 11, Workers: 4, Workspace: ws}
		lay, _, err := ParHDE(g, opt)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		assertCoordsEqual(t, fmt.Sprintf("run %d s=%d", i, c.s), lay, oracleLayout(t, g, opt, c.ls))
	}
}

// TestParHDEBitIdenticalUnderGOMAXPROCSFlips: the worker budget is
// snapshotted once at layout start, so flipping GOMAXPROCS continuously
// while the layout runs can neither re-partition a running kernel nor
// outrun the packed-arena sizing (kernels size per-worker slots from the
// snapshotted count before fanning out). Every flipped run must match
// the quiet single-worker reference bitwise.
func TestParHDEBitIdenticalUnderGOMAXPROCSFlips(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := gen.Kron(13, 8, 3)
	ref, _, err := ParHDE(g, Options{Subspace: 8, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		procs := []int{1, 3, 2, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			runtime.GOMAXPROCS(procs[i%len(procs)])
			runtime.Gosched()
		}
	}()
	ws := workspace.New()
	for r := 0; r < 4; r++ {
		// Workers: 0 snapshots whatever GOMAXPROCS happens to be at entry —
		// a different budget each round, with the value still churning
		// underneath the run.
		lay, _, err := ParHDE(g, Options{Subspace: 8, Seed: 11, Workspace: ws})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for k := range ref.Coords.Data {
			if lay.Coords.Data[k] != ref.Coords.Data[k] {
				t.Fatalf("round %d: Coords[%d] = %v, want %v (bitwise)",
					r, k, lay.Coords.Data[k], ref.Coords.Data[k])
			}
		}
	}
	close(stop)
	<-done
}

// TestParHDEWorkersSnapshotDefault: Workers <= 0 snapshots GOMAXPROCS at
// layout start and reports the captured value.
func TestParHDEWorkersSnapshotDefault(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	g := gen.Grid2D(15, 15)
	_, rep, err := ParHDE(g, Options{Subspace: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 2 {
		t.Fatalf("Report.Workers = %d, want snapshot of GOMAXPROCS(2)", rep.Workers)
	}
}
