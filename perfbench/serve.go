package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/quality"
	"repro/internal/render"
	"repro/internal/server"
	"repro/internal/shard"
)

// served is the catalog name of the mutated graph: every worker pins its
// start-up graph under it.
const served = "default"

// waitLimit bounds every wait for an SSE frame or a job; hitting it counts
// as a failed operation.
const waitLimit = 20 * time.Second

// serveBench is an in-process fleet — a shard.Router in front of two
// server.Server workers, one job-pool worker each, replication 1 — and the
// closed-loop client that drives it over one request connection and one
// SSE connection.
type serveBench struct {
	seed    uint64
	batch   int
	rng     *rand.Rand
	mirror  *mirror
	svcN    int
	svcM    int64
	jobName string

	workers   []*server.Server
	https     []*http.Server
	serving   sync.WaitGroup // one per https entry
	urls      []string
	owner     string // worker URL that owns the served graph
	router    *shard.Router
	routerURL string
	client    *http.Client

	events      <-chan sseEvent
	closeStream func()

	before map[string]float64 // fleet counters when measuring began

	version int         // last SSE version received
	coords  [][]float64 // the served graph's installed layout, rebuilt from SSE frames
	etag    string      // ETag of the last layout.png read
	iter    int
}

// serveHTTP starts h on ln; close stops it and waits for the goroutine.
func (sb *serveBench) serveHTTP(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	sb.https = append(sb.https, hs)
	sb.serving.Add(1)
	go func() {
		defer sb.serving.Done()
		_ = hs.Serve(ln) // always http.ErrServerClosed, after close
	}()
}

// newServeBench starts the fleet, uploads the job graph, opens the stream
// and warms every path the loop times: the first PATCH (which promotes the
// graph to a dynamic one), a render miss/hit/304 and one cold job. It is
// part of set-up.
func newServeBench(svc, job *graph.CSR, batch int, seed uint64) (*serveBench, error) {
	sb := &serveBench{seed: seed, batch: batch, rng: rand.New(rand.NewPCG(seed, 0x5eed)),
		mirror: newMirror(svc), svcN: svc.NumV, svcM: svc.NumEdges()}
	ready := false
	defer func() {
		if !ready {
			sb.close()
		}
	}()
	var lns []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	for _, ln := range lns[:2] {
		sb.urls = append(sb.urls, "http://"+ln.Addr().String())
	}
	ring := shard.NewRing(sb.urls, 0)
	sb.owner = ring.Owner(served)
	for i, ln := range lns[:2] {
		w, err := server.NewWithConfig(svc, core.Options{Seed: seed},
			server.Config{WorkerID: fmt.Sprintf("w%d", i+1), Workers: 1})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, fmt.Errorf("start worker: %w", err)
		}
		sb.workers = append(sb.workers, w)
		sb.serveHTTP(ln, w.Handler())
	}
	var err error
	sb.router, err = shard.NewRouter(shard.Config{Peers: sb.urls, Replication: 1})
	if err != nil {
		lns[2].Close()
		return nil, err
	}
	sb.serveHTTP(lns[2], sb.router.Handler())
	sb.routerURL = "http://" + lns[2].Addr().String()
	sb.client = &http.Client{Timeout: waitLimit, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}

	// Put the job graph on the worker that does not own the served graph,
	// whatever ports the listeners got, so both workers are used.
	for i := 0; ; i++ {
		sb.jobName = fmt.Sprintf("jobgraph%d", i)
		if ring.Owner(sb.jobName) != sb.owner {
			break
		}
	}
	var body bytes.Buffer
	if err := graph.WriteBinary(&body, job); err != nil {
		return nil, err
	}
	if _, _, err := sb.do("POST", "/graphs?format=bin&name="+sb.jobName, body.Bytes(), nil, http.StatusCreated); err != nil {
		return nil, fmt.Errorf("upload job graph: %w", err)
	}

	if err := sb.openStream(); err != nil {
		return nil, err
	}
	r := newRun(false)
	sb.iteration(r, true)
	if r.failed > 0 {
		return nil, fmt.Errorf("service warm-up failed")
	}
	ready = true
	return sb, nil
}

// close stops the client, the router and the workers, and waits for their
// goroutines.
func (sb *serveBench) close() {
	if sb.closeStream != nil {
		sb.closeStream()
	}
	if sb.client != nil {
		sb.client.CloseIdleConnections()
	}
	for _, hs := range sb.https {
		_ = hs.Close() // closes listeners and connections; nothing to flush
	}
	sb.serving.Wait()
	if sb.router != nil {
		sb.router.Close()
	}
	for _, w := range sb.workers {
		w.Close()
	}
}

// do sends one request through the router on the request connection and
// checks the status. It returns the body and headers.
func (sb *serveBench) do(method, path string, body []byte, hdr http.Header, want int) ([]byte, http.Header, error) {
	return sb.doURL(sb.routerURL+path, method, body, hdr, want)
}

func (sb *serveBench) doURL(url, method string, body []byte, hdr http.Header, want int) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := sb.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return b, resp.Header, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, url, resp.StatusCode, want, b)
	}
	return b, resp.Header, nil
}

// sseEvent is one parsed stream frame; at is when its data line arrived.
type sseEvent struct {
	kind    string
	version int
	n       int
	full    bool
	changed []int32
	coords  [][]float64
	at      time.Time
	err     error
}

// openStream subscribes to the served graph's SSE stream through the
// router and waits for the snapshot.
func (sb *serveBench) openStream() error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", sb.routerURL+"/graphs/"+served+"/stream", nil)
	if err != nil {
		cancel()
		return err
	}
	// The stream gets its own connection, never subject to a timeout.
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	events := make(chan sseEvent)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer resp.Body.Close()
		readSSE(ctx, resp.Body, events)
	}()
	sb.events = events
	sb.closeStream = func() { cancel(); wg.Wait() }
	ev, err := sb.next(0)
	if err != nil {
		return err
	}
	if ev.kind != "snapshot" || !ev.full {
		return fmt.Errorf("stream opened with %q, want a full snapshot", ev.kind)
	}
	sb.version = ev.version
	sb.coords = ev.coords
	return checkCoords(sb.coords, sb.mirror.numV())
}

// readSSE parses frames from body and sends them until ctx ends or the
// stream fails (the failure is sent as an event).
func readSSE(ctx context.Context, body io.Reader, out chan<- sseEvent) {
	br := bufio.NewReaderSize(body, 1<<20)
	var kind string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			select {
			case out <- sseEvent{err: fmt.Errorf("stream: %w", err)}:
			case <-ctx.Done():
			}
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev := sseEvent{kind: kind, at: time.Now()}
			var f struct {
				Version int         `json:"version"`
				N       int         `json:"n"`
				Full    bool        `json:"full"`
				Changed []int32     `json:"changed"`
				Coords  [][]float64 `json:"coords"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &f); err != nil {
				ev.err = fmt.Errorf("stream frame: %w", err)
			}
			ev.version, ev.n, ev.full, ev.changed, ev.coords = f.Version, f.N, f.Full, f.Changed, f.Coords
			select {
			case out <- ev:
			case <-ctx.Done():
				return
			}
		}
	}
}

// next returns the next frame, failing after waitLimit. A frame whose
// version does not exceed `after` breaks the strictly-increasing rule.
func (sb *serveBench) next(after int) (sseEvent, error) {
	timer := time.NewTimer(waitLimit)
	defer timer.Stop()
	select {
	case ev := <-sb.events:
		if ev.err != nil {
			return ev, ev.err
		}
		if ev.version <= after {
			return ev, fmt.Errorf("stream version %d after %d: versions must strictly increase", ev.version, after)
		}
		return ev, nil
	case <-timer.C:
		return sseEvent{}, fmt.Errorf("no stream frame within %v", waitLimit)
	}
}

func checkCoords(coords [][]float64, n int) error {
	if len(coords) != n {
		return fmt.Errorf("layout has %d rows, graph has %d vertices", len(coords), n)
	}
	for i, row := range coords {
		if len(row) != 2 {
			return fmt.Errorf("row %d has %d coordinates", i, len(row))
		}
		for _, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("row %d is not finite", i)
			}
		}
	}
	return nil
}

// apply folds a delta frame into the client's copy of the layout.
func (sb *serveBench) apply(ev sseEvent) error {
	if ev.full {
		sb.coords = ev.coords
	} else {
		if len(ev.changed) != len(ev.coords) {
			return fmt.Errorf("delta has %d ids and %d rows", len(ev.changed), len(ev.coords))
		}
		for len(sb.coords) < ev.n {
			sb.coords = append(sb.coords, nil)
		}
		for k, id := range ev.changed {
			if int(id) >= len(sb.coords) {
				return fmt.Errorf("delta row %d beyond n=%d", id, ev.n)
			}
			sb.coords[id] = ev.coords[k]
		}
	}
	return checkCoords(sb.coords, sb.mirror.numV())
}

// jobStatus is the part of the job status object the benchmark reads.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Phases   []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	} `json:"phases"`
}

func (sb *serveBench) job(id string) (jobStatus, error) {
	var st jobStatus
	b, _, err := sb.do("GET", "/jobs/"+id, nil, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// recordJob copies a finished job's queue wait and run time into
// per-layer samples; runName names the run-time metric.
func recordJob(r *run, st jobStatus, runName string) {
	if st.Started == nil || st.Finished == nil {
		return
	}
	r.add("jobs.queue_wait_s", st.Started.Sub(st.Created).Seconds())
	r.add(runName, st.Finished.Sub(*st.Started).Seconds())
}

// iteration runs one closed-loop step: PATCH a seeded batch, wait for the
// delta of that generation, read layout.png as a miss, a hit and a 304,
// and every jobEvery steps run a cold job on the second graph. Traced
// steps also read the job records, time a direct render.Draw and the
// router hop. warm marks the set-up step, whose timings are not kept.
func (sb *serveBench) iteration(r *run, warm bool) {
	sb.iter++
	i := sb.iter
	keep := func(name string, v float64) {
		if !warm {
			r.add(name, v)
		}
	}
	traced := r.traced && !warm && (i/2)%2 == 0
	r.tr.on = traced
	defer func() { r.tr.on = r.traced }()
	it := r.tr.begin("iteration", 0, i)
	defer r.tr.end(it)

	ops, applied := sb.mirror.batch(sb.rng, sb.batch)
	body, _ := json.Marshal(map[string]any{"mutations": ops}) // plain structs: cannot fail
	sp := r.tr.begin("PATCH /graphs/{name}", it, i)
	t0 := time.Now()
	b, _, err := sb.do("PATCH", "/graphs/"+served, body, nil, http.StatusAccepted)
	ack := time.Since(t0).Seconds()
	r.tr.end(sp)
	var pr struct {
		Applied  int       `json:"applied"`
		Vertices int       `json:"vertices"`
		Job      jobStatus `json:"job"`
	}
	if err == nil {
		err = json.Unmarshal(b, &pr)
	}
	if err == nil && (pr.Applied != applied || pr.Vertices != sb.mirror.numV()) {
		err = fmt.Errorf("server applied %d ops over %d vertices, client expected %d over %d",
			pr.Applied, pr.Vertices, applied, sb.mirror.numV())
	}
	if !r.op("PATCH", err) {
		return
	}
	keep("dyngraph.patch_ack_s", ack)

	sp = r.tr.begin("wait delta", it, i)
	ev, err := sb.next(sb.version)
	r.tr.end(sp)
	if err == nil && ev.version != sb.version+1 {
		err = fmt.Errorf("delta version %d, want %d (frames dropped)", ev.version, sb.version+1)
	}
	if err == nil {
		sb.version = ev.version
		err = sb.apply(ev)
	}
	if err != nil {
		if st, jerr := sb.job(pr.Job.ID); jerr == nil && st.State != "done" {
			err = fmt.Errorf("%v; refinement job %s is %s: %s", err, st.ID, st.State, st.Error)
		}
		r.op("delta", err)
		return
	}
	r.op("delta", nil)
	delta := ev.at.Sub(t0).Seconds()
	keep("mutate_to_delta_s", delta)
	if !warm {
		if traced {
			r.add("trace.mutate_traced_s", delta)
		} else {
			r.add("trace.mutate_untraced_s", delta)
		}
	}
	if traced {
		sp = r.tr.begin("GET /jobs/{id}", it, i)
		st, err := sb.job(pr.Job.ID)
		r.tr.end(sp)
		if err == nil && st.State != "done" {
			err = fmt.Errorf("refinement job %s is %s after its delta", st.ID, st.State)
		}
		if r.op("refinement job record", err) {
			recordJob(r, st, "jobs.run_s")
			r.add("server.install_to_delta_s", ev.at.Sub(*st.Finished).Seconds())
			for _, p := range st.Phases {
				if p.Name == "warm_refine" {
					r.add("core.warm_refine_s", p.Seconds)
				}
			}
		}
	}

	sb.renders(r, it, i, keep)
	if warm || i%jobEvery == 0 {
		sb.coldJob(r, it, i, keep, traced, sb.seed+uint64(i/jobEvery%layoutSeeds))
		if traced {
			sb.drawDirect(r, it, i)
		}
	}
	if traced {
		sb.hop(r, it, i)
	}
}

// renders reads layout.png three ways: after an install the router's copy
// is stale (a miss), then fresh (a hit revalidated with the owner), then
// the client revalidates itself (a 304).
func (sb *serveBench) renders(r *run, it, i int, keep func(string, float64)) {
	path := "/graphs/" + served + "/layout.png"
	for _, kind := range []string{"miss", "hit", "304"} {
		var hdr http.Header
		want := http.StatusOK
		if kind == "304" {
			hdr, want = http.Header{"If-None-Match": {sb.etag}}, http.StatusNotModified
		}
		sp := r.tr.begin("GET layout.png "+kind, it, i)
		t := time.Now()
		b, h, err := sb.do("GET", path, nil, hdr, want)
		el := time.Since(t).Seconds()
		r.tr.end(sp)
		if err == nil {
			err = checkPNG(kind, b, h.Get("ETag"), sb.etag)
		}
		if !r.op("layout.png "+kind, err) {
			continue
		}
		if kind == "miss" {
			sb.etag = h.Get("ETag")
		}
		keep("render_s", el)
		keep("server.render_"+kind+"_s", el)
	}
}

var pngMagic = []byte("\x89PNG\r\n\x1a\n")

// checkPNG holds each read to its contract: a miss carries a new ETag and
// a PNG, a hit the same ETag and a PNG, a 304 no body.
func checkPNG(kind string, body []byte, etag, prev string) error {
	switch kind {
	case "304":
		if len(body) != 0 {
			return errors.New("304 with a body")
		}
		return nil
	case "miss":
		if etag == "" || etag == prev {
			return fmt.Errorf("ETag %q did not change after an install", etag)
		}
	default:
		if etag != prev {
			return fmt.Errorf("ETag changed from %q to %q without an install", prev, etag)
		}
	}
	if !bytes.HasPrefix(body, pngMagic) {
		return errors.New("body is not a PNG")
	}
	return nil
}

// coldJob submits a cold layout of the second graph and polls it to done.
// Jobs cycle through the layout seeds, as the cold layouts do.
func (sb *serveBench) coldJob(r *run, it, i int, keep func(string, float64), traced bool, layoutSeed uint64) {
	sp := r.tr.begin("POST /jobs", it, i)
	defer r.tr.end(sp)
	req, _ := json.Marshal(map[string]any{"graph": sb.jobName, "seed": layoutSeed}) // cannot fail
	t := time.Now()
	b, _, err := sb.do("POST", "/jobs", req, nil, http.StatusAccepted)
	var st jobStatus
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	for err == nil && st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			break
		}
		if time.Since(t) > waitLimit {
			err = fmt.Errorf("job %s not done within %v", st.ID, waitLimit)
			break
		}
		time.Sleep(2 * time.Millisecond)
		st, err = sb.job(st.ID)
	}
	el := time.Since(t).Seconds()
	if !r.op("cold job", err) {
		return
	}
	keep("job_s", el)
	if traced {
		recordJob(r, st, "jobs.cold_run_s")
	}
}

// layout rebuilds the installed layout from the client's SSE copy.
func (sb *serveBench) layout() *core.Layout {
	l := core.RandomLayout(len(sb.coords), 2, 0)
	x, y := l.X(), l.Y()
	for v, row := range sb.coords {
		x[v], y[v] = row[0], row[1]
	}
	return l
}

// drawDirect times render.Draw of the installed layout with the options
// the server's PNG endpoint uses.
func (sb *serveBench) drawDirect(r *run, it, i int) {
	g, err := sb.mirror.csr()
	if !r.op("mirror graph", err) {
		return
	}
	l := sb.layout()
	sp := r.tr.begin("render.Draw", it, i)
	t := time.Now()
	err = render.Draw(io.Discard, g, l, render.Options{Size: 700})
	el := time.Since(t).Seconds()
	r.tr.end(sp)
	if r.op("render.Draw", err) {
		r.add("render.draw_png_s", el)
	}
}

// hop reads the same cached tile through the router and straight from the
// owning worker; the difference is the router's cost.
func (sb *serveBench) hop(r *run, it, i int) {
	path := "/graphs/" + served + "/layout.png"
	var d [2]float64
	for k, url := range []string{sb.routerURL + path, sb.owner + path} {
		sp := r.tr.begin("hop read", it, i)
		t := time.Now()
		b, h, err := sb.doURL(url, "GET", nil, nil, http.StatusOK)
		d[k] = time.Since(t).Seconds()
		r.tr.end(sp)
		if err == nil {
			err = checkPNG("hit", b, h.Get("ETag"), sb.etag)
		}
		if !r.op("hop read", err) {
			return
		}
	}
	r.add("shard.hop_s", d[0]-d[1])
}

// scrape reads a Prometheus text page into series → value.
func (sb *serveBench) scrape(url string) (map[string]float64, error) {
	b, _, err := sb.doURL(url+"/metrics", "GET", nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err == nil {
			out[line[:i]] += v
		}
	}
	return out, nil
}

// counters sums the fleet's counters: workers' and router's series.
func (sb *serveBench) counters() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range append(append([]string(nil), sb.urls...), sb.routerURL) {
		m, err := sb.scrape(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// begin records the fleet's counters before the first measured step.
func (sb *serveBench) begin(r *run) {
	var err error
	sb.before, err = sb.counters()
	r.op("scrape /metrics", err)
}

// finish checks the mirror against the catalog and derives the
// counter-based layer metrics.
func (sb *serveBench) finish(r *run) {
	r.info["batches"] = sb.iter - 1
	after, err := sb.counters()
	if r.op("scrape /metrics", err) && sb.before != nil {
		d := func(k string) float64 { return after[k] - sb.before[k] }
		warm, cold := d(`layouts_installed_total{mode="warm"}`), d(`layouts_installed_total{mode="cold"}`)
		r.set("server.layouts_installed_warm", warm)
		r.set("server.layouts_installed_cold", cold)
		r.set("core.refine_sweeps", d("refine_sweeps_total")/warm)
		hits, misses := d("render_cache_hits_total"), d("render_cache_misses_total")
		r.set("server.render_hit_ratio", hits/(hits+misses))
		hits, misses = d("router_cache_hits_total"), d("router_cache_misses_total")
		r.set("shard.cache_hit_ratio", hits/(hits+misses))
	}
	r.op("catalog matches client", sb.checkCatalog())
}

// warmStress sets warm_stress_ratio from the final graph and its
// installed layout. Like stress, it runs after the measured phases.
func (sb *serveBench) warmStress(r *run) {
	g, err := sb.mirror.csr()
	if !r.op("mirror graph", err) {
		return
	}
	ratio, err := warmStressRatio(g, sb.layout(), sb.seed)
	if r.op("warm stress ratio", err) {
		r.set("warm_stress_ratio", ratio)
	}
}

// checkCatalog compares the served graph's size in its owner's catalog
// with the client's mirror.
func (sb *serveBench) checkCatalog() error {
	b, _, err := sb.doURL(sb.owner+"/graphs", "GET", nil, nil, http.StatusOK)
	if err != nil {
		return err
	}
	var list struct {
		Graphs []struct {
			Name     string `json:"name"`
			Vertices int    `json:"vertices"`
			Edges    int64  `json:"edges"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return err
	}
	for _, g := range list.Graphs {
		if g.Name == served {
			if g.Vertices != sb.mirror.numV() || g.Edges != sb.mirror.m {
				return fmt.Errorf("catalog has %d vertices and %d edges, client has %d and %d",
					g.Vertices, g.Edges, sb.mirror.numV(), sb.mirror.m)
			}
			return nil
		}
	}
	return fmt.Errorf("no catalog entry for %q", served)
}

// warmStressRatio compares the chained warm layout with cold layouts of
// the same graph made with the server's options. The cold reference is the
// mean stress over the layout seeds seed … seed+layoutSeeds-1, as for
// stress, so the luck of one first pivot does not enter the ratio.
// Mutation leaves isolated vertices, and a cold layout of a disconnected
// graph is refused, so both sides are scored on the graph's largest
// component (the warm layout restricted to it).
func warmStressRatio(g *graph.CSR, warm *core.Layout, seed uint64) (float64, error) {
	label, count := graph.Components(g)
	size := make([]int, count)
	for _, c := range label {
		size[c]++
	}
	big := 0
	for c := range size {
		if size[c] > size[big] {
			big = c
		}
	}
	var keep []int32
	for v, c := range label {
		if int(c) == big {
			keep = append(keep, int32(v))
		}
	}
	sub, orig, err := graph.InducedSubgraph(g, keep)
	if err != nil {
		return 0, err
	}
	w := core.RandomLayout(sub.NumV, 2, 0)
	x, y := w.X(), w.Y()
	for i, v := range orig {
		x[i], y[i] = warm.X()[v], warm.Y()[v]
	}
	var cs float64
	for k := uint64(0); k < layoutSeeds; k++ {
		cold, _, err := core.ParHDE(sub, core.Options{Seed: seed + k})
		if err == nil {
			_, err = checkLayout(cold, sub.NumV)
		}
		if err != nil {
			return 0, fmt.Errorf("cold reference layout: %w", err)
		}
		cs += quality.SampledStress(sub, cold, stressSources, stressSeed) / layoutSeeds
	}
	if cs <= 0 {
		return 0, fmt.Errorf("cold reference stress is %v", cs)
	}
	return quality.SampledStress(sub, w, stressSources, stressSeed) / cs, nil
}
