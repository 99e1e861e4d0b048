// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, times only calls into the layers' public entry
// points (core.ParHDE in process; server and shard over HTTP), checks
// every output, and prints the metrics named in BENCHMARK.json as the
// last line of standard output. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// graphSpec names a generated input graph.
type graphSpec struct {
	kind  string // "kron": largest component of gen.Kron(scale, 16, seed); "road": gen.Road(scale, scale, seed)
	scale int
}

func (gs graphSpec) build(seed uint64) *graph.CSR {
	if gs.kind == "road" {
		return gen.Road(gs.scale, gs.scale, seed)
	}
	return graph.LargestComponent(gen.Kron(gs.scale, 16, seed))
}

func (gs graphSpec) String() string { return fmt.Sprintf("%s-%d", gs.kind, gs.scale) }

// workload is one input set. Every workload runs both kinds of step —
// cold layouts of `cold` and the closed-loop service mix on `svc` and
// `job` — so every metric is measured on every workload; the workloads
// differ in graph class and in which kind of step takes most of the run.
type workload struct {
	name  string
	cold  graphSpec // laid out cold, Workers=1 and Workers=nproc alternating
	coldS int       // subspace dimension of the cold layouts
	svc   graphSpec // the served graph the mutation stream edits
	job   graphSpec // the second graph cold jobs lay out
}

// The reasons for each choice are in README.md. serve-mutate serves kron
// 2^16 and lays out road 256² in its jobs; the cold workloads serve a
// graph of their own class with 1/4 of the cold graph's vertices (so
// kron-dense serves serve-mutate's graph, and road-deep its job graph)
// and share serve-mutate's job graph.
var (
	jobGraph  = graphSpec{"road", 256}
	workloads = []workload{
		{name: "kron-dense", cold: graphSpec{"kron", 18}, coldS: 32,
			svc: graphSpec{"kron", 16}, job: jobGraph},
		{name: "road-deep", cold: graphSpec{"road", 512}, coldS: 10,
			svc: graphSpec{"road", 256}, job: jobGraph},
		{name: "serve-mutate", cold: graphSpec{"kron", 16}, coldS: 32,
			svc: graphSpec{"kron", 16}, job: jobGraph},
	}
)

// Service-loop constants. Each run sends `batches` PATCH batches after the
// set-up batch: a fixed count, not a time, so chained drift, the memory
// finished jobs retain and the tail percentile do not move with the
// system's speed, and 40 samples put ten beyond p75. A batch changes
// batchShare of the served graph's edges: 200 ops on kron 2^16 (909,212
// edges at seed 1), the batch at which chained drift was first measured.
// A cold job runs every jobEvery batches, 20 per run.
const (
	batches    = 40
	batchShare = 200.0 / 909212
	jobEvery   = 2
	setupReps  = 3
)

// batchSize is the number of mutations per PATCH on a graph of m edges.
func batchSize(m int64) int { return max(1, int(math.Round(batchShare*float64(m)))) }

// metricDef is one reported metric; the tables must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"layout_s", "s"}, {"layout_1w_s", "s"}, {"stress", "1"},
	{"mutate_to_delta_s", "s"}, {"mutate_to_delta_tail_s", "s"},
	{"render_s", "s"}, {"job_s", "s"}, {"warm_stress_ratio", "ratio"},
	{"setup_s", "s"}, {"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"bfs.traversal_s", "s"}, {"bfs.traversal_1w_s", "s"}, {"pivot.other_s", "s"},
	{"bfs.us_per_level", "us"}, {"bfs.us_per_level_1w", "us"},
	{"bfs.edges_per_s", "1/s"}, {"bfs.gbps_computed", "GB/s"},
	{"bfs.levels", "count"}, {"bfs.topdown_steps", "count"},
	{"bfs.bottomup_steps", "count"}, {"bfs.scanned_edges", "count"},
	{"linalg.ls_s", "s"}, {"linalg.ls_gbps_computed", "GB/s"},
	{"linalg.gemm_s", "s"}, {"linalg.gemm_gflops", "GFLOP/s"},
	{"linalg.project_s", "s"},
	{"ortho.dortho_s", "s"}, {"ortho.kept_cols", "count"},
	{"eigen.eigensolve_s", "s"},
	{"bfs.traversal.speedup_2w", "ratio"}, {"pivot.other.speedup_2w", "ratio"},
	{"ortho.dortho.speedup_2w", "ratio"}, {"linalg.ls.speedup_2w", "ratio"},
	{"linalg.gemm.speedup_2w", "ratio"}, {"eigen.eigensolve.speedup_2w", "ratio"},
	{"linalg.project.speedup_2w", "ratio"}, {"core.layout.speedup_2w", "ratio"},
	{"core.allocs_per_layout", "count"}, {"core.bytes_per_layout", "B"},
	{"core.warm_refine_s", "s"}, {"core.refine_sweeps", "count"},
	{"dyngraph.patch_ack_s", "s"},
	{"jobs.queue_wait_s", "s"}, {"jobs.run_s", "s"}, {"jobs.cold_run_s", "s"},
	{"server.install_to_delta_s", "s"},
	{"server.layouts_installed_warm", "count"}, {"server.layouts_installed_cold", "count"},
	{"server.render_miss_s", "s"}, {"server.render_hit_s", "s"}, {"server.render_304_s", "s"},
	{"server.render_hit_ratio", "ratio"},
	{"render.draw_png_s", "s"},
	{"shard.hop_s", "s"}, {"shard.cache_hit_ratio", "ratio"},
	{"client.iteration_self_s", "s"},
	{"host.triad_gbps", "GB/s"},
	{"trace.overhead_layout_s", "s"}, {"trace.overhead_mutate_s", "s"},
}

// run accumulates one benchmark run: operation outcomes, samples and
// single values by metric name, and provenance for the info line.
type run struct {
	traced    bool
	tr        *tracer
	attempted int
	failed    int
	samples   map[string][]float64
	values    map[string]float64
	info      map[string]any
}

func newRun(traced bool) *run {
	return &run{traced: traced, tr: newTracer(traced), samples: map[string][]float64{},
		values: map[string]float64{}, info: map[string]any{}}
}

// op counts one attempted operation and reports whether it succeeded;
// failures are logged to standard error.
func (r *run) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		return false
	}
	return true
}

func (r *run) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
func (r *run) set(name string, v float64) { r.values[name] = v }

// get returns a set value, else the median of the samples (NaN if none).
func (r *run) get(name string) float64 {
	if v, ok := r.values[name]; ok {
		return v
	}
	return median(r.samples[name])
}

// derive computes the metrics that combine raw measurements.
func (r *run) derive() {
	// End to end.
	if p, v, ok := tail(r.samples["mutate_to_delta_s"]); ok {
		r.set("mutate_to_delta_tail_s", v)
		r.info["mutate_to_delta_tail_percentile"] = p
	}
	r.info["mutate_to_delta_samples"] = len(r.samples["mutate_to_delta_s"])

	// Cold-layout layers.
	n, nnz := int(r.get("cold.n")), int64(r.get("cold.nnz"))
	trav := r.get("bfs.traversal_s")
	levels, scanned := r.get("bfs.levels"), r.get("bfs.scanned_edges")
	r.set("bfs.us_per_level", 1e6*trav/levels)
	r.set("bfs.us_per_level_1w", 1e6*r.get("bfs.traversal_1w_s")/levels)
	r.set("bfs.edges_per_s", scanned/trav)
	r.set("bfs.gbps_computed", bfsBytes(n, int(r.get("bfs.traversals")), int64(scanned))/trav/1e9)
	kept := int(r.get("ortho.kept_cols"))
	r.set("linalg.ls_gbps_computed", lsBytes(n, nnz, kept)/r.get("linalg.ls_s")/1e9)
	r.set("linalg.gemm_gflops", gemmFlops(n, kept)/r.get("linalg.gemm_s")/1e9)
	for _, p := range phaseTimes {
		r.set(p.name+".speedup_2w", r.get(p.name+"_1w_s")/r.get(p.name+"_s"))
	}
	r.set("trace.overhead_layout_s", r.get("trace.layout_traced_s")-r.get("trace.layout_untraced_s"))
	r.set("trace.overhead_mutate_s", r.get("trace.mutate_traced_s")-r.get("trace.mutate_untraced_s"))
	if self := selfTimes(r.tr.spans)["iteration"]; len(self) > 0 {
		r.set("client.iteration_self_s", median(self))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the result for the metric table the run mode prints. A
// metric that could not be measured counts as a failed operation.
func (r *run) report(defs []metricDef) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.get(d.name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.op("metric "+d.name, fmt.Errorf("not measured"))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	return res
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload name (kron-dense, road-deep, serve-mutate)")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write spans")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r := newRun(*trace == 1)
	if err := runWorkload(r, wl, *seed, *seconds); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
		if out := os.Getenv("PERFBENCH_OUT"); out != "" {
			path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
			if err := r.tr.write(path, map[string]any{"workload": wl.name, "seed": *seed}); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			} else {
				r.info["spans_file"] = path
			}
		}
	}
	res := r.report(defs)
	r.info["workload"] = wl.name
	r.info["host"] = hostFacts(*seed)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": r.info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// runWorkload sets the workload up setupReps times (keeping the last),
// then measures cold layouts and service steps interleaved over the
// window, then scores layout quality untimed. An error means the
// benchmark itself could not run; failures of the system under test are
// counted in r instead.
func runWorkload(r *run, wl workload, seed uint64, seconds float64) error {
	var cb *coldBench
	var sb *serveBench
	for rep := 0; rep < setupReps; rep++ {
		if sb != nil {
			sb.close()
			cb, sb = nil, nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t := time.Now()
		var err error
		cb, sb, err = setup(wl, seed)
		if err != nil {
			return err
		}
		r.add("setup_s", time.Since(t).Seconds())
	}
	defer sb.close()
	r.set("cold.n", float64(cb.g.NumV))
	r.set("cold.nnz", float64(len(cb.g.Adj)))
	r.info["graphs"] = map[string]any{
		"cold": map[string]any{"spec": wl.cold.String(), "vertices": cb.g.NumV, "edges": cb.g.NumEdges(), "subspace": wl.coldS},
		"svc":  map[string]any{"spec": wl.svc.String(), "vertices": sb.svcN, "edges": sb.svcM, "batch": sb.batch},
		"job":  map[string]any{"spec": wl.job.String(), "name": sb.jobName},
	}

	// Start measuring on a collected heap: set-up garbage would otherwise
	// be marked during the first timed calls. The service steps are paced
	// evenly over the measured window and cold layouts fill the time
	// between them, so every metric samples the whole window: on a shared
	// host the speed drifts within seconds, and a metric sampled in one
	// stretch would take that stretch's speed.
	runtime.GC()
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	sb.begin(r)
	for done := 0; ; {
		el := time.Since(start)
		if done < batches && (el >= window || float64(done) < float64(batches)*el.Seconds()/window.Seconds()) {
			sb.iteration(r, false)
			done++
			continue
		}
		if el >= window && cb.cycled() {
			break
		}
		cb.step(r)
	}
	r.info["measured_s"] = time.Since(start).Seconds()
	sb.finish(r)
	cb.finish(r)
	// Peak memory covers set-up and the measured window; the quality
	// scoring below is the benchmark's own work.
	r.set("peak_rss_mb", float64(statusKB("VmHWM"))/1024)
	cb.stress(r)
	sb.warmStress(r)
	if r.traced {
		tri := triad(runtime.GOMAXPROCS(0), 5)
		r.set("host.triad_gbps", tri.GBps)
		r.info["triad"] = tri
	}
	r.derive()
	return nil
}

// setup builds every input and warms every layer the run will time.
func setup(wl workload, seed uint64) (*coldBench, *serveBench, error) {
	cg := wl.cold.build(seed)
	cb, err := newColdBench(cg, wl.coldS, seed)
	if err != nil {
		return nil, nil, err
	}
	sg := cg
	if wl.svc != wl.cold {
		sg = wl.svc.build(seed)
	}
	sb, err := newServeBench(sg, wl.job.build(seed), batchSize(sg.NumEdges()), seed)
	if err != nil {
		return nil, nil, err
	}
	return cb, sb, nil
}
