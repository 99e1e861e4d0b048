package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 7, 9}, 5, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: tail must sort
		}
		pct, v, ok := tail(xs)
		if ok != c.ok || pct != c.pct {
			t.Errorf("n=%d: tail percentile %v (ok %v), want %v (ok %v)", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p%v, want at least 10", c.n, beyond, pct)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "iteration", ID: 1, Start: 0, End: 10},
		{Name: "a", ID: 2, Parent: 1, Start: 1, End: 3},
		{Name: "b", ID: 3, Parent: 1, Start: 2, End: 5},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 7, End: 12}, // runs past its parent
		{Name: "d", ID: 5, Parent: 3, Start: 2, End: 4},
	}
	self := selfTimes(spans)
	want := map[string]float64{"iteration": 10 - 4 - 3, "a": 2, "b": 1, "c": 5, "d": 2}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-w) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", name, got, w)
		}
	}
}

func TestComputedCounts(t *testing.T) {
	cases := []struct {
		name      string
		got, want float64
	}{
		{"csrBytes", csrBytes(3, 4), 8*4 + 4*4},
		{"lsBytes", lsBytes(3, 4, 2), 48 + 2*8*3*2 + 8*3},
		{"gemmFlops", gemmFlops(10, 3), 180},
		{"bfsBytes", bfsBytes(3, 2, 5), 2*(8*4+4*3) + 4*5},
		{"triadBytes", triadBytes(10), 240},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestTablesMatchBenchmarkJSON holds the metric and workload tables the
// program prints to the ones BENCHMARK.json declares.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in program", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in program",
					kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// shrink keeps a workload's shape on tiny graphs, so a smoke run takes
// seconds.
func shrink(wl workload) workload {
	small := func(g graphSpec) graphSpec {
		if g.kind == "road" {
			return graphSpec{"road", 24}
		}
		return graphSpec{"kron", 11}
	}
	wl.cold, wl.svc, wl.job = small(wl.cold), small(wl.svc), small(wl.job)
	return wl
}

// TestSmokeEveryWorkload runs each workload at tiny scale, untraced and
// traced, and requires every declared metric with no failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts in-process fleets")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRun(traced)
			if err := runWorkload(r, shrink(wl), 3, 0.2); err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res := r.report(defs)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(defs))
			}
			if traced && len(r.tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", wl.name)
			}
		}
	}
}
