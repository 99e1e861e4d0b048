//go:build perf

// Package kernelbench is the shared harness of the perf-tagged kernel
// gates. Each gate measures a production kernel against a reference (its
// oracle, or its own 1-worker run) on the same machine in the same run
// and fails when the speedup falls below the baseline recorded in
// perf/kernel_budget.json times the file's margin. Ratios travel between
// laptops and CI runners without re-baselining in a way absolute ns/op
// numbers do not. The gates live as TestKernelBudgetGate and
// TestParallelEfficiencyGate in each package that owns the oracle
// (linalg, ortho, bfs) and here for the whole-layout entry; all are
// build-tagged perf to keep the tier-1 `go test ./...` fast. Run them
// with -p 1 so no two packages' gates share the host's cores:
//
//	go test -p 1 -tags perf -count=1 -run 'TestKernelBudgetGate|TestParallelEfficiencyGate' \
//	    ./internal/linalg/ ./internal/ortho/ ./internal/bfs/ ./internal/kernelbench/
package kernelbench

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// Gate checks measured speedups against perf/kernel_budget.json.
type Gate struct {
	t       *testing.T
	margin  float64
	entries map[string]entry
	workers int
	suffix  string
}

type entry struct {
	BaselineSpeedup float64 `json:"baseline_speedup"`
}

// load reads the budget file; tests run from internal/<pkg>, two levels
// below the repository root.
func load(t *testing.T, workers int, suffix string) *Gate {
	t.Helper()
	b, err := os.ReadFile("../../perf/kernel_budget.json")
	if err != nil {
		t.Fatalf("reading kernel budget: %v", err)
	}
	g := &Gate{t: t, workers: workers, suffix: suffix}
	var budget struct {
		Margin  float64          `json:"margin"`
		Kernels map[string]entry `json:"kernels"`
	}
	if err := json.Unmarshal(b, &budget); err != nil {
		t.Fatalf("decoding kernel budget: %v", err)
	}
	if budget.Margin <= 0 || budget.Margin >= 1 {
		t.Fatalf("kernel budget margin %v out of (0,1)", budget.Margin)
	}
	g.margin, g.entries = budget.Margin, budget.Kernels
	prev := runtime.GOMAXPROCS(workers)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return g
}

// SingleCore returns the gate for per-core kernel quality: GOMAXPROCS is
// pinned to 1 for the rest of the test so a ratio reflects the kernels,
// not the parallel scheduler.
func SingleCore(t *testing.T) *Gate {
	return load(t, 1, "")
}

// Parallel returns the gate for multi-worker speedups, with GOMAXPROCS
// pinned to Workers(). It needs 4 real cores for the full-strength *_4w
// entries; on 2- and 3-core hosts it falls back to the *_2w entries
// measured at 2 workers so smaller runners still gate something, and
// only a single-core host skips — loudly, with the reason in the log.
func Parallel(t *testing.T) *Gate {
	switch n := runtime.NumCPU(); {
	case n >= 4:
		return load(t, 4, "_4w")
	case n >= 2:
		t.Logf("FALLBACK: only %d cores — gating the 2-worker floors (*_2w) instead of the 4-worker acceptance floors (*_4w); run on a >=4-core host for the full gate", n)
		return load(t, 2, "_2w")
	default:
		t.Skipf("SKIPPED (not silently): parallel-efficiency gate needs >= 2 cores, have %d — a single core cannot exhibit any parallel speedup", n)
		return nil
	}
}

// Workers is the worker count the gate's entries are measured at.
func (g *Gate) Workers() int { return g.workers }

// Check fails the test when speedup is below the named entry's baseline
// times the margin. Parallel gates append their _2w/_4w suffix to name.
func (g *Gate) Check(name string, speedup float64) {
	g.t.Helper()
	name += g.suffix
	want, ok := g.entries[name]
	if !ok {
		g.t.Fatalf("no kernel budget entry for %q", name)
	}
	floor := want.BaselineSpeedup * g.margin
	g.t.Logf("%s: %d-worker speedup %.2fx (baseline %.2fx, floor %.2fx)", name, g.workers, speedup, want.BaselineSpeedup, floor)
	if speedup < floor {
		g.t.Errorf("%s: speedup %.2fx below floor %.2fx — if the regression is intentional, lower perf/kernel_budget.json", name, speedup, floor)
	}
}

// Speedup returns the fastest of reps timings of ref over the fastest of
// reps timings of opt — the minimum-of-repetitions estimator, robust to
// scheduling noise. The two are timed alternately, opt first in each
// pair, so host drift during the measurement hits both sides alike.
func Speedup(reps int, ref, opt func()) float64 {
	bestRef, bestOpt := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < reps; i++ {
		bestOpt = min(bestOpt, MinTime(1, opt))
		bestRef = min(bestRef, MinTime(1, ref))
	}
	return float64(bestRef) / float64(bestOpt)
}

// MinTime returns the fastest of reps timings of f.
func MinTime(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
