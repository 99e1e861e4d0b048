package core

import (
	"context"
	"errors"
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Warm-start refinement: instead of re-running the full BFS + MGS + eigen
// pipeline after a small graph mutation, the prior layout is refined with
// a few batch-parallel SGD sweeps in the style of El Gheche et al.'s
// spectral embedding with implicit orthogonality — each sweep pulls every
// vertex toward the mean of a deterministic sample of its neighbors
// (sampled-edge attraction, a damped degree-smoothing step that contracts
// toward the bottom of the Laplacian spectrum) and then restores the
// spectral-embedding invariants the smoothing erodes: each axis is
// deflated against the trivial eigenvector (D-weighted mean removal),
// D-orthogonalized against the earlier axes, and rescaled to its original
// D-norm. Every vertex update reads only the previous sweep's buffer and
// writes its own row of the next one, so the result is bitwise identical
// for every worker budget; the O(n·p) correction reductions run serially.

const (
	// DefaultWarmSweeps caps the refinement sweep count when
	// Options.WarmSweeps is unset; the actual default scales with
	// staleness (see defaultSweeps).
	DefaultWarmSweeps = 12
	// DefaultMaxPriorDelta is the staleness bound when
	// Options.MaxPriorDelta is unset: a prior is accepted while the
	// mutated edges and the new vertices are each within 2% of the
	// current graph.
	DefaultMaxPriorDelta = 0.02

	// warmSampleK caps the neighbors sampled per vertex per sweep.
	warmSampleK = 8
	// warmEta and warmEtaDecay schedule the attraction step size:
	// η_t = warmEta · warmEtaDecay^t.
	warmEta      = 0.6
	warmEtaDecay = 0.5
)

// ErrNonFiniteRefinement is returned by ParHDE when a warm refinement
// yields a NaN or infinite coordinate — a non-finite prior, or a chain of
// refinements that has degenerated. Such a layout is never returned: a
// caller keeps whatever it drew before and can lay the graph out cold.
var ErrNonFiniteRefinement = errors.New("core: warm refinement produced non-finite coordinates")

// warmEligible reports whether opt.Prior can warm-start a layout of g:
// the prior must exist, match the requested dimensionality, cover at most
// the current vertex set (vertex ids never shrink under dyngraph
// mutation), and the accumulated delta must be inside the staleness
// bound. Weighted graphs always run cold — the sweep kernel samples
// unweighted adjacency.
func warmEligible(g *graph.CSR, opt Options) bool {
	prior := opt.Prior
	if prior == nil || prior.Coords == nil || g.Weighted() {
		return false
	}
	n, n0 := g.NumV, prior.NumVertices()
	if prior.Dims() != opt.Dims || opt.Dims > 8 || n0 < 2 || n0 > n {
		return false
	}
	if opt.PriorDeltaEdges < 0 {
		return false
	}
	m := g.NumEdges()
	if m == 0 {
		return false
	}
	bound := opt.MaxPriorDelta
	if bound <= 0 {
		bound = DefaultMaxPriorDelta
	}
	return float64(opt.PriorDeltaEdges) <= bound*float64(m) &&
		float64(n-n0) <= bound*float64(n)
}

// warmRefine runs the sweep loop. The returned layout aliases the
// workspace Coords buffer when one is attached (same contract as the cold
// path); the prior is never written.
func warmRefine(ctx context.Context, bud parallel.Budget, g *graph.CSR, opt Options, rep *Report) (*Layout, error) {
	n, p := g.NumV, opt.Dims
	sweeps := opt.WarmSweeps
	if sweeps <= 0 {
		sweeps = defaultSweeps(g, opt)
	}

	ws := opt.Workspace
	var cur, nxt *linalg.Dense
	var deg []float64
	if ws != nil {
		cur = linalg.ViewDense(ws.Coords, n, p)
		nxt = linalg.ViewDense(ws.Warm, n, p)
		ws.Deg = g.WeightedDegreesIntoBudget(bud, ws.Deg)
		deg = ws.Deg
	} else {
		cur = linalg.NewDense(n, p)
		nxt = linalg.NewDense(n, p)
		deg = g.WeightedDegreesIntoBudget(bud, nil)
	}
	seedPrior(bud, g, opt.Prior, cur, opt.Seed)

	// Capture the spectral invariants of the (deflated) prior: each
	// axis's D-norm is held constant across sweeps so smoothing cannot
	// contract the drawing.
	target := make([]float64, p)
	for j := 0; j < p; j++ {
		col := cur.Col(j)
		deflate(deg, col)
		target[j] = math.Sqrt(ddot(deg, col, col))
	}

	for t := 0; t < sweeps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eta := warmEta * math.Pow(warmEtaDecay, float64(t))
		sweep(bud, g, cur, nxt, eta, opt.Seed, t)
		correct(deg, nxt, target)
		cur, nxt = nxt, cur
	}
	rep.RefineSweeps = sweeps
	for _, x := range cur.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, ErrNonFiniteRefinement
		}
	}

	if ws != nil && &cur.Data[0] != &ws.Coords[0] {
		out := linalg.ViewDense(ws.Coords, n, p)
		copy(out.Data, cur.Data)
		cur = out
	}
	return &Layout{Coords: cur}, nil
}

// defaultSweeps picks the sweep count for an unset Options.WarmSweeps:
// proportional to how stale the prior is (the larger of the edge-delta
// and new-vertex fractions), because a refinement only has to absorb a
// local perturbation of an already-converged embedding. Two sweeps is
// the floor (one to move, one to settle under the decayed step); the
// count is capped at DefaultWarmSweeps, reached around the
// DefaultMaxPriorDelta staleness bound.
func defaultSweeps(g *graph.CSR, opt Options) int {
	frac := float64(opt.PriorDeltaEdges) / float64(g.NumEdges())
	if vf := float64(g.NumV-opt.Prior.NumVertices()) / float64(g.NumV); vf > frac {
		frac = vf
	}
	sweeps := 2 + int(150*frac)
	if sweeps > DefaultWarmSweeps {
		sweeps = DefaultWarmSweeps
	}
	return sweeps
}

// seedPrior copies the prior coordinates into cur and places vertices the
// prior has never seen (id ≥ prior rows). New vertices are seeded in id
// order at the centroid of their already-placed neighbors — a vertex
// attached only to other new vertices uses whichever of them precede it —
// falling back to a deterministic jitter around the drawing centroid for
// vertices with no placed neighbor at all.
func seedPrior(bud parallel.Budget, g *graph.CSR, prior *Layout, cur *linalg.Dense, seed uint64) {
	n, p := cur.Rows, cur.Cols
	n0 := prior.NumVertices()
	var span float64
	centroid := make([]float64, p)
	for j := 0; j < p; j++ {
		src := prior.Coords.Col(j)
		dst := cur.Col(j)
		copyBlock(bud, dst[:n0], src)
		mn, mx := math.Inf(1), math.Inf(-1)
		sum := 0.0
		for _, v := range src {
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		centroid[j] = sum / float64(n0)
		if s := mx - mn; s > span {
			span = s
		}
	}
	if span == 0 {
		span = 1
	}
	for i := n0; i < n; i++ {
		placed := 0
		for j := 0; j < p; j++ {
			cur.Col(j)[i] = 0
		}
		for _, w := range g.Neighbors(int32(i)) {
			if int(w) >= i {
				continue
			}
			placed++
			for j := 0; j < p; j++ {
				cur.Col(j)[i] += cur.Col(j)[int(w)]
			}
		}
		if placed > 0 {
			for j := 0; j < p; j++ {
				cur.Col(j)[i] /= float64(placed)
			}
			continue
		}
		h := splitmix(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		for j := 0; j < p; j++ {
			h = splitmix(h)
			// Uniform in ±span/200: close enough to the centroid not to
			// distort the drawing, distinct enough that coincident new
			// vertices separate under later sweeps.
			cur.Col(j)[i] = centroid[j] + span*(float64(h>>11)/float64(1<<53)-0.5)/100
		}
	}
}

// sweep advances every vertex one attraction step: toward the mean of up
// to warmSampleK sampled neighbors, damped by eta. Reads cur only, writes
// nxt only, so the partitioning of the vertex range cannot change any
// result bit.
func sweep(bud parallel.Budget, g *graph.CSR, cur, nxt *linalg.Dense, eta float64, seed uint64, t int) {
	n, p := cur.Rows, cur.Cols
	salt := splitmix(seed ^ (uint64(t)+1)*0xbf58476d1ce4e5b9)
	// Hoist the column slices: warmEligible caps p at 8.
	var cc, nc [8][]float64
	for j := 0; j < p; j++ {
		cc[j], nc[j] = cur.Col(j), nxt.Col(j)
	}
	body := func(lo, hi int) {
		var mean [8]float64
		for i := lo; i < hi; i++ {
			nb := g.Neighbors(int32(i))
			d := len(nb)
			if d == 0 {
				for j := 0; j < p; j++ {
					nc[j][i] = cc[j][i]
				}
				continue
			}
			for j := 0; j < p; j++ {
				mean[j] = 0
			}
			k := d
			if d <= warmSampleK {
				for _, w := range nb {
					for j := 0; j < p; j++ {
						mean[j] += cc[j][int(w)]
					}
				}
			} else {
				k = warmSampleK
				h := salt ^ uint64(i)*0x94d049bb133111eb
				for s := 0; s < warmSampleK; s++ {
					h = splitmix(h)
					w := nb[h%uint64(d)]
					for j := 0; j < p; j++ {
						mean[j] += cc[j][int(w)]
					}
				}
			}
			inv := eta / float64(k)
			for j := 0; j < p; j++ {
				c := cc[j][i]
				nc[j][i] = c + inv*(mean[j]-float64(k)*c)
			}
		}
	}
	if bud.Serial(n) {
		body(0, n)
		return
	}
	bud.ForBlock(n, body)
}

// correct restores the implicit-orthogonality invariants on x after a
// smoothing sweep: deflation against the trivial eigenvector, MGS
// D-orthogonalization of axis j against axes < j, and rescaling to the
// captured target D-norm. Serial by design — O(n·p²) on p=2 is noise next
// to the sweep, and a serial reduction is deterministic for free.
func correct(deg []float64, x *linalg.Dense, target []float64) {
	p := x.Cols
	for j := 0; j < p; j++ {
		col := x.Col(j)
		deflate(deg, col)
		for l := 0; l < j; l++ {
			prev := x.Col(l)
			pn := ddot(deg, prev, prev)
			if pn <= 0 {
				continue
			}
			r := ddot(deg, prev, col) / pn
			for i := range col {
				col[i] -= r * prev[i]
			}
		}
		if target[j] <= 0 {
			continue
		}
		nrm := math.Sqrt(ddot(deg, col, col))
		if nrm <= 0 {
			continue
		}
		scale := target[j] / nrm
		for i := range col {
			col[i] *= scale
		}
	}
}

// deflate removes the D-weighted mean of col — its component along the
// all-ones trivial eigenvector of Lu = µDu.
func deflate(deg, col []float64) {
	var sum, tot float64
	for i := range col {
		sum += deg[i] * col[i]
		tot += deg[i]
	}
	if tot <= 0 {
		return
	}
	mean := sum / tot
	for i := range col {
		col[i] -= mean
	}
}

// ddot is the D inner product Σ deg_i·a_i·b_i, evaluated serially.
func ddot(deg, a, b []float64) float64 {
	var s float64
	for i := range a {
		s += deg[i] * a[i] * b[i]
	}
	return s
}

// copyBlock copies src into dst under the run's worker budget.
func copyBlock(bud parallel.Budget, dst, src []float64) {
	if bud.Serial(len(dst)) {
		copy(dst, src)
		return
	}
	bud.ForBlock(len(dst), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
