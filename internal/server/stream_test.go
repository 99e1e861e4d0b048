package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// sseClient reads events off one /stream connection.
type sseClient struct {
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

func dialStream(t *testing.T, url, graph string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/graphs/"+graph+"/stream", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	c := &sseClient{resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next blocks for the next SSE event, decoding its JSON payload.
func (c *sseClient) next(t *testing.T) (string, streamEvent) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	_ = c.resp.Body // the request context bounds reads; keep parsing simple
	var event string
	var data []byte
	for {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for SSE event")
		}
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && event != "":
			var ev streamEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			return event, ev
		}
	}
}

func patchGraph(t *testing.T, url, graph, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url+"/graphs/"+graph, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestMutateStreamMonotoneVersions is the end-to-end acceptance test: an
// SSE client sees a snapshot and then one monotonically-versioned
// coordinate delta per mutation batch, across three consecutive batches.
func TestMutateStreamMonotoneVersions(t *testing.T) {
	_, ts := newTestServerPair(t, Config{})
	c := dialStream(t, ts.URL, "default")

	event, snap := c.next(t)
	if event != "snapshot" || !snap.Full || snap.N == 0 || len(snap.Coords) != snap.N {
		t.Fatalf("first event = %q %+v, want full snapshot", event, snap)
	}
	last := snap.Version

	batches := []string{
		`{"mutations":[{"op":"addEdge","u":0,"v":47},{"op":"addEdge","u":1,"v":33}]}`,
		`{"mutations":[{"op":"delEdge","u":0,"v":47}]}`,
		`{"mutations":[{"op":"addVertices","count":1},{"op":"addEdge","u":0,"v":2}]}`,
	}
	for i, body := range batches {
		code, b := patchGraph(t, ts.URL, "default", body)
		if code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d: %s", i, code, b)
		}
		event, ev := c.next(t)
		if event != "delta" {
			t.Fatalf("batch %d: event %q, want delta", i, event)
		}
		if ev.Version <= last {
			t.Fatalf("batch %d: version %d not greater than %d", i, ev.Version, last)
		}
		last = ev.Version
		if ev.Full {
			if len(ev.Coords) != ev.N {
				t.Fatalf("batch %d: full event carries %d rows for n=%d", i, len(ev.Coords), ev.N)
			}
		} else {
			if len(ev.Changed) == 0 || len(ev.Changed) != len(ev.Coords) {
				t.Fatalf("batch %d: delta with %d indices, %d rows", i, len(ev.Changed), len(ev.Coords))
			}
		}
	}
}

// TestStaleTileNeverServed is the cache-invalidation regression test: a
// cached tile must not be served once the graph's catalog generation
// moves — whether via the explicit Touch API or a PATCH mutation — even
// before a new layout installs.
func TestStaleTileNeverServed(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/graphs/default/layout.png")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	orig := get()
	renders := s.viewRenders.Value()
	get()
	if got := s.viewRenders.Value(); got != renders {
		t.Fatalf("second request re-rendered (%d → %d), want cache hit", renders, got)
	}
	// Touch: same graph bytes, but the cached tile may no longer be
	// trusted; the server must re-render rather than serve the old key.
	if _, err := s.cat.Touch("default"); err != nil {
		t.Fatal(err)
	}
	get()
	if got := s.viewRenders.Value(); got != renders+1 {
		t.Fatalf("post-Touch renders = %d, want %d (stale tile served?)", got, renders+1)
	}

	// PATCH: generation moves again; once the refinement installs, the
	// tile must re-render from the new layout and differ from the
	// original drawing.
	c := dialStream(t, ts.URL, "default")
	if ev, _ := c.next(t); ev != "snapshot" {
		t.Fatalf("expected snapshot, got %q", ev)
	}
	code, b := patchGraph(t, ts.URL, "default",
		`{"mutations":[{"op":"addEdge","u":0,"v":451},{"op":"addEdge","u":3,"v":333}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("patch status %d: %s", code, b)
	}
	c.next(t) // delta ⇒ new view installed
	after := get()
	if bytes.Equal(after, orig) {
		t.Fatal("tile unchanged after mutation + relayout")
	}
}

// TestMutateErrors locks in the PATCH error discipline.
func TestMutateErrors(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	cases := []struct {
		name, graph, body string
		want              int
	}{
		{"unknown graph", "nope", `{"mutations":[{"op":"addEdge","u":0,"v":1}]}`, http.StatusNotFound},
		{"malformed body", "default", `{"mutations":`, http.StatusBadRequest},
		{"unknown op", "default", `{"mutations":[{"op":"recolor","u":0,"v":1}]}`, http.StatusBadRequest},
		{"empty batch", "default", `{"mutations":[]}`, http.StatusBadRequest},
		{"self loop", "default", `{"mutations":[{"op":"addEdge","u":4,"v":4}]}`, http.StatusBadRequest},
		{"out of range", "default", `{"mutations":[{"op":"addEdge","u":0,"v":99999999}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, b := patchGraph(t, ts.URL, tc.graph, tc.body)
			if code != tc.want {
				t.Fatalf("status %d, want %d: %s", code, tc.want, b)
			}
		})
	}
	// Weighted graphs cannot be promoted: 409.
	if err := s.cat.Add("wg", s.defaultView().g.WithUnitWeights(), "test"); err != nil {
		t.Fatal(err)
	}
	if code, _ := patchGraph(t, ts.URL, "wg", `{"mutations":[{"op":"addEdge","u":0,"v":9}]}`); code != http.StatusConflict {
		t.Fatalf("weighted patch status %d, want 409", code)
	}
	// Unknown graph's stream is 404.
	r2, err := http.Get(ts.URL + "/graphs/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("stream of unknown graph: %d, want 404", r2.StatusCode)
	}
}

// TestStreamSoakNoGoroutineLeak runs a mutate loop against several
// concurrent SSE subscribers, then disconnects them all and verifies the
// handler goroutines unwind (run under -race in CI).
func TestStreamSoakNoGoroutineLeak(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	before := runtime.NumGoroutine()

	const subscribers = 8
	clients := make([]*sseClient, subscribers)
	for i := range clients {
		clients[i] = dialStream(t, ts.URL, "default")
		if ev, _ := clients[i].next(t); ev != "snapshot" {
			t.Fatalf("subscriber %d: expected snapshot, got %q", i, ev)
		}
	}
	if got := s.streamSubs.Value(); got != subscribers {
		t.Fatalf("stream_subscribers = %d, want %d", got, subscribers)
	}

	for round := 0; round < 3; round++ {
		code, b := patchGraph(t, ts.URL, "default",
			fmt.Sprintf(`{"mutations":[{"op":"addEdge","u":%d,"v":%d}]}`, round, 100+31*round))
		if code != http.StatusAccepted {
			t.Fatalf("round %d: status %d: %s", round, code, b)
		}
		for i, c := range clients {
			if ev, payload := c.next(t); ev != "delta" || payload.Version < 2 {
				t.Fatalf("round %d subscriber %d: %q %+v", round, i, ev, payload)
			}
		}
	}

	for _, c := range clients {
		c.close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Idle keep-alive connections in the shared client transport hold
		// goroutines on both ends; drop them so only a real server-side
		// leak can keep the count elevated.
		http.DefaultClient.CloseIdleConnections()
		if s.streamSubs.Value() == 0 && runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d before, %d after disconnect; %d subscribers still registered\n%s",
				before, runtime.NumGoroutine(), s.streamSubs.Value(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWarmInstallMetrics checks that mutations route through the
// warm-start path and show up on /metrics.
func TestWarmInstallMetrics(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	c := dialStream(t, ts.URL, "default")
	c.next(t)
	code, b := patchGraph(t, ts.URL, "default", `{"mutations":[{"op":"addEdge","u":0,"v":77}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("patch status %d: %s", code, b)
	}
	c.next(t) // wait for the install
	if got := s.warmLayouts.Value(); got != 1 {
		t.Fatalf("warm installs = %d, want 1", got)
	}
	if got := s.refineSweeps.Value(); got <= 0 {
		t.Fatalf("refine_sweeps_total = %d, want > 0", got)
	}
	if got := s.mutationsApplied.Value(); got != 1 {
		t.Fatalf("graph_mutations_total = %d, want 1", got)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ = io.ReadAll(mresp.Body)
	for _, want := range []string{
		`layouts_installed_total{mode="warm"} 1`,
		"refine_sweeps_total",
		"stream_broadcast_seconds",
		"stream_subscribers",
		"graph_mutations_total 1",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestNonFiniteRefinementFailsJob: a warm refinement that comes out
// non-finite fails its job instead of installing a NaN view. The previous
// view stays current, and the next good refinement streams the very next
// version, so no frame went missing in between.
func TestNonFiniteRefinementFailsJob(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	c := dialStream(t, ts.URL, "default")
	_, snap := c.next(t)

	// Poison the installed layout, which the next PATCH takes as its prior.
	s.mu.Lock()
	v := s.views["default"]
	col := v.layout.Coords.Col(0)
	saved := col[3]
	col[3] = math.NaN()
	s.mu.Unlock()

	code, b := patchGraph(t, ts.URL, "default", `{"mutations":[{"op":"addEdge","u":0,"v":47}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("patch status %d: %s", code, b)
	}
	var accepted struct {
		Job jobs.Status `json:"job"`
	}
	if err := json.Unmarshal(b, &accepted); err != nil {
		t.Fatal(err)
	}
	st := waitJobState(t, ts.URL, accepted.Job.ID, "failed")
	if !strings.Contains(st.Error, "non-finite") {
		t.Fatalf("failed job error = %q, want the non-finite refinement error", st.Error)
	}
	s.mu.Lock()
	still := s.views["default"]
	col[3] = saved
	s.mu.Unlock()
	if still != v {
		t.Fatal("a failed refinement replaced the installed view")
	}

	code, b = patchGraph(t, ts.URL, "default", `{"mutations":[{"op":"addEdge","u":1,"v":33}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("second patch status %d: %s", code, b)
	}
	event, ev := c.next(t)
	if event != "delta" || ev.Version != snap.Version+1 {
		t.Fatalf("after the failed job: event %q version %d, want delta version %d", event, ev.Version, snap.Version+1)
	}
}
