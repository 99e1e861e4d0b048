// Package core implements the paper's primary contribution: ParHDE, the
// shared-memory parallel High-Dimensional Embedding graph-layout algorithm
// (ICPP'20 Algorithm 3), together with the closely related PHDE and
// PivotMDS parallelizations (§3.2), the weighted-graph extension (§3.3),
// the prior-work baseline it is evaluated against (§4.2), and the §4.5
// extensions: zoomed neighborhood layout, plain-orthogonalization
// eigen-projection, and centroid refinement toward true eigenvectors.
package core

import (
	"repro/internal/bfs"
	"repro/internal/ortho"
	"repro/internal/pivot"
	"repro/internal/workspace"
)

// DefaultSubspace is the default subspace dimension s. The paper uses 10
// for timing runs and notes 50 is a common choice in HDE.
const DefaultSubspace = 10

// Options configures a ParHDE run.
type Options struct {
	// Subspace is s, the number of pivots / BFS distance vectors.
	Subspace int
	// Dims is the layout dimensionality p (2 by default; the paper fixes
	// p=2 but the code supports p ≤ kept-columns).
	Dims int
	// Ortho selects Modified (default) or Classical Gram-Schmidt for the
	// DOrtho phase (Table 7).
	Ortho ortho.Method
	// PlainOrtho switches D-orthogonalization to plain orthogonalization,
	// approximating Laplacian rather than degree-normalized eigenvectors
	// (§4.5.1).
	PlainOrtho bool
	// Pivots selects k-centers (default) or random pivot selection
	// (Table 6).
	Pivots pivot.Strategy
	// Seed determines the randomly-chosen start vertex and any random
	// pivots; runs are deterministic for a fixed seed.
	Seed uint64
	// Workers is the worker budget for every parallel kernel of the run.
	// It is captured once at layout start — ≤ 0 snapshots GOMAXPROCS at
	// that moment — and threaded through all phases, so a GOMAXPROCS
	// change mid-layout can never re-partition running kernels or
	// desynchronize worker-indexed scratch. Because every reduction runs
	// over the fixed linalg row tiling, the coordinates are bitwise
	// identical for every value of Workers.
	Workers int
	// BFS tunes the direction-optimizing traversal.
	BFS bfs.Options
	// Delta is the Δ-stepping bucket width for weighted graphs; ≤ 0 uses
	// the suggestion heuristic. Ignored for unweighted graphs.
	Delta float64
	// SkipConnectivityCheck suppresses the reachability verification after
	// the first traversal (benchmarks on known-connected inputs).
	SkipConnectivityCheck bool
	// Coupled interleaves the BFS and DOrtho phases: each distance vector
	// is orthogonalized as soon as its traversal finishes and the raw
	// distance matrix is never stored, cutting the O(sn) extra memory of
	// Table 1 roughly in half. Only the default configuration supports it
	// (MGS — the §4.4 capability CGS gives up — with k-centers pivots on
	// an unweighted graph); the result is bitwise identical to the
	// decoupled run.
	Coupled bool
	// Workspace supplies pooled scratch for the run's large buffers
	// (BFS frontiers, the distance matrix, the DOrtho column store, the
	// TripleProd panels, the output coordinates). nil allocates fresh
	// buffers per run. With a workspace the steady state performs no
	// O(n)-sized allocations, and results are bit-identical to a
	// fresh-allocation run; the returned Layout aliases workspace storage
	// and is valid only until the workspace's next run (Clone to retain).
	Workspace *workspace.Workspace
	// TrackAllocs records per-phase heap-allocation deltas into
	// Report.PhaseAllocs. Each phase is bracketed by
	// runtime.ReadMemStats, which is process-global and stops the world
	// briefly: intended for the benchmark harness, not production serving.
	TrackAllocs bool
	// Prior supplies an earlier layout of (an earlier version of) the same
	// graph as a warm start. When the graph delta is small — see
	// PriorDeltaEdges / MaxPriorDelta — the run skips the full BFS + MGS
	// pipeline and instead refines the prior with WarmSweeps batch-parallel
	// SGD sweeps (sampled-edge attraction plus an implicit-orthogonality
	// correction against the degree inner product). The prior is read-only:
	// it is copied into the run's own buffers and never mutated, and may
	// have fewer rows than the current graph (vertices added since; new
	// vertices are seeded at the centroid of their placed neighbors).
	// Ineligible priors — weighted graph, dimension mismatch, more rows
	// than vertices, or a delta past the staleness bound — fall back to a
	// cold run; Report.Warm records which path ran.
	Prior *Layout
	// PriorDeltaEdges is the number of edges inserted or deleted since
	// Prior was computed (the catalog's pending-delta count). Used only for
	// the staleness test; < 0 means unknown and forces a cold run.
	PriorDeltaEdges int64
	// MaxPriorDelta is the staleness bound as a fraction of the current
	// edge count: warm start runs only if PriorDeltaEdges ≤ MaxPriorDelta·m
	// and the new-vertex fraction is within the same bound. ≤ 0 uses
	// DefaultMaxPriorDelta.
	MaxPriorDelta float64
	// WarmSweeps is the number of refinement sweeps of the warm path; ≤ 0
	// uses DefaultWarmSweeps.
	WarmSweeps int
}

// withDefaults normalizes zero values.
func (o Options) withDefaults() Options {
	if o.Subspace <= 0 {
		o.Subspace = DefaultSubspace
	}
	if o.Dims <= 0 {
		o.Dims = 2
	}
	return o
}
