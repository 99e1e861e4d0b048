// Package workspace provides pooled, size-checked scratch memory for the
// layout pipeline's hot path. A steady-state ParHDE run touches four
// large buffer families — the BFS frontier/queue scratch and hop vectors,
// the column-major distance matrix B, the DOrtho kept-column store behind
// S, and the TripleProd product P with its row-major source pack — and
// without reuse every queued layout job re-pays those O(n·s) allocations
// and the GC traffic they induce, exactly the unbatched memory waste
// BatchLayout attributes to shared-memory layout codes. A Workspace owns
// one instance of every buffer; a Pool is a sync.Pool-backed arena of
// Workspaces keyed by graph shape (n, m, s) so concurrent users exchange
// correctly sized scratch without cross-shape churn.
//
// Ownership contract: a Workspace serves one layout run at a time. The
// run's outputs that alias workspace storage (the layout coordinates and
// the orthogonalization result) are valid only until the workspace's next
// run; callers that retain results across runs must deep-copy them first
// (core.Layout.Clone). Results computed through a workspace are
// bit-identical to a fresh-allocation run with the same options, for any
// worker budget: every reduction arena here is sized by the fixed
// problem-shape tiling (linalg.ReduceBlocks), never by the worker count,
// so a GOMAXPROCS change between or during runs cannot leave an arena
// short or change any sum's combine order.
package workspace

import (
	"sync"

	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/pivot"
)

// Workspace holds every reusable scratch buffer of one ParHDE run. The
// zero value from New is empty; Reshape sizes it for a (n, s) problem and
// is idempotent for a same-shaped sequence of runs, so a job-engine
// worker that owns one Workspace and reshapes it per job allocates only
// when the graph shape actually changes.
type Workspace struct {
	n, s int

	// Pivot is the BFS-phase scratch: traversal frontiers/queues plus the
	// per-pivot hop vector and the k-centers min-distance vector.
	Pivot *pivot.Scratch
	// Col is the widened float64 hop column of the coupled BFS+DOrtho loop.
	Col []float64
	// Deg caches the weighted-degree vector diag(D) between runs.
	Deg []float64
	// B backs the n×s distance matrix of the decoupled path.
	B *linalg.Dense
	// Ortho is the DOrtho kept-column store, work vector, and the
	// reduction-partials buffer reused across every MGS inner product.
	Ortho *ortho.Scratch
	// SRM is the n·s row-major pack of S that the TripleProd L·S kernel
	// gathers neighbor rows from (one edge-list pass advances all s
	// columns).
	SRM []float64
	// P backs the n×s TripleProd product L·S.
	P []float64
	// Z backs the s×s projected matrix Sᵀ(LS).
	Z []float64
	// GemmPartials is the per-tile panel arena of the deterministic AᵀB
	// reduction, sized by linalg.ReduceBlocks(n) — a function of n only,
	// so no worker-count change can desynchronize it from the kernel's
	// tile grid.
	GemmPartials []float64
	// Pack is the per-worker output-chunk arena of the TripleProd L·S
	// kernel, which fuses each chunk of rows into its slot and unpacks it
	// while it is cache-resident. The kernel sizes it from the worker
	// count it snapshots at entry, so it carries across budget changes;
	// it only grows.
	Pack *linalg.PackArena
	// Coords backs the n×p output layout. The Layout returned from a
	// workspace-backed run aliases it; Clone before the next run if
	// retained.
	Coords []float64
	// Warm is the n×p ping-pong buffer of the warm-start refinement
	// sweeps (each sweep reads one coordinate buffer and writes the
	// other; Coords always holds the final result).
	Warm []float64

	pool *Pool
	key  Shape
}

// New returns an empty workspace; the first Reshape sizes it.
func New() *Workspace {
	return &Workspace{}
}

// Reshape grows the workspace to serve an n-vertex, s-pivot, p-dimension
// run. Buffers already large enough are kept as-is (capacity is never
// shed), so reshaping between same-shaped jobs performs no allocations.
func (ws *Workspace) Reshape(n, s, p int) {
	if ws.Pivot == nil {
		ws.Pivot = pivot.NewScratch(n)
	} else {
		ws.Pivot.Ensure(n)
	}
	ws.Col = growFloat(ws.Col, n)
	if ws.B == nil || ws.B.Rows != n || ws.B.Cols < s {
		ws.B = linalg.NewDense(n, s)
	}
	if ws.Ortho == nil {
		ws.Ortho = ortho.NewScratch(n, s)
	} else {
		ws.Ortho.Ensure(n, s)
	}
	ws.SRM = growFloat(ws.SRM, n*s)
	ws.P = growFloat(ws.P, n*s)
	ws.Z = growFloat(ws.Z, s*s)
	ws.GemmPartials = growFloat(ws.GemmPartials, linalg.ReduceBlocks(n)*s*s)
	if ws.Pack == nil {
		ws.Pack = &linalg.PackArena{}
	}
	ws.Coords = growFloat(ws.Coords, n*p)
	ws.Warm = growFloat(ws.Warm, n*p)
	ws.n, ws.s = n, s
}

// DistView returns the n×cols distance-matrix view over B's storage.
func (ws *Workspace) DistView(n, cols int) *linalg.Dense {
	return linalg.ViewDense(ws.B.Data, n, cols)
}

// Release returns the workspace to the pool it was acquired from (no-op
// for workspaces made with New). The caller must not use it afterwards.
func (ws *Workspace) Release() {
	if ws.pool != nil {
		ws.pool.put(ws)
	}
}

// growFloat returns buf resliced to n elements, reallocating only when
// capacity is short.
func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Shape keys a pool bucket: vertex count, edge count, and subspace
// dimension. No current buffer scales with m, but it participates in the
// key so kernels that later add edge-sized scratch cannot silently share
// misshapen arenas across graphs with equal n.
type Shape struct {
	N int   // vertex count
	M int64 // undirected edge count
	S int   // subspace dimension
}

// Pool is a sync.Pool-backed arena of Workspaces bucketed by Shape.
// Get/put pairs on the same shape recycle fully warmed workspaces across
// goroutines; idle buckets drain under GC pressure like any sync.Pool, so
// a burst of odd-shaped jobs cannot pin memory forever.
type Pool struct {
	mu      sync.Mutex
	buckets map[Shape]*sync.Pool
}

// NewPool returns an empty workspace pool.
func NewPool() *Pool {
	return &Pool{buckets: map[Shape]*sync.Pool{}}
}

// Default is the process-wide workspace pool.
var Default = NewPool()

// Get returns a workspace shaped for an n-vertex, m-edge, s-pivot,
// p-dimension run: a recycled same-shape workspace when one is pooled, a
// freshly sized one otherwise. Pair with Release.
func (p *Pool) Get(n int, m int64, s, dims int) *Workspace {
	key := Shape{N: n, M: m, S: s}
	p.mu.Lock()
	b, ok := p.buckets[key]
	if !ok {
		b = &sync.Pool{}
		p.buckets[key] = b
	}
	p.mu.Unlock()
	ws, _ := b.Get().(*Workspace)
	if ws == nil {
		ws = New()
	}
	ws.pool, ws.key = p, key
	ws.Reshape(n, s, dims)
	return ws
}

func (p *Pool) put(ws *Workspace) {
	p.mu.Lock()
	b, ok := p.buckets[ws.key]
	p.mu.Unlock()
	if ok {
		b.Put(ws)
	}
}
