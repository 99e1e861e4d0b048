// Package stress implements layout by stress majorization (Gansner, Koren,
// North — SMACOF iterations), the optimization the paper's §4.5.4 proposes
// seeding with ParHDE instead of PHDE: "It is known that PHDE's layout
// serves as a good initialization for layout using stress majorization.
// We could consider replacing PHDE by ParHDE to see if this speeds up this
// optimization problem."
//
// Two stress models are provided: full stress over all vertex pairs
// (graph-theoretic distances by repeated BFS; quadratic, for small
// graphs), and sparse stress over edges plus per-vertex pivot terms
// (linear per iteration, the practical large-graph variant).
package stress

import (
	"fmt"
	"math"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/pivot"
)

// Options controls the majorization loop.
type Options struct {
	MaxIters int     // majorization sweeps (default 100)
	Tol      float64 // relative stress-decrease stopping threshold (default 1e-4)
	// Pivots is the number of pivot terms per vertex in the sparse model
	// (default 16; ignored by Full).
	Pivots int
	Seed   uint64
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.Pivots <= 0 {
		o.Pivots = 16
	}
	return o
}

// Result reports a majorization run.
type Result struct {
	Iterations int
	// Stress is Σ w_ij (‖x_i−x_j‖ − d_ij)² over the model's terms, after
	// the final iteration, normalized by the number of terms.
	Stress float64
	// History holds the stress after each iteration (for convergence
	// plots; HDE-seeded runs start far lower than random-seeded ones).
	History []float64
}

// Full runs full-stress majorization on g, refining the given layout in
// place. All-pairs graph distances are computed by n BFS traversals, so
// this is only sensible for small graphs (n ≲ 5000).
func Full(g *graph.CSR, l *core.Layout, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := g.NumV
	if n > 20000 {
		return Result{}, fmt.Errorf("stress: full model on %d vertices; use Sparse", n)
	}
	if l.NumVertices() != n {
		return Result{}, fmt.Errorf("stress: layout has %d vertices, graph %d", l.NumVertices(), n)
	}
	// All-pairs hop distances, row by row.
	dist := make([][]int32, n)
	runner := bfs.NewRunnerBudget(g, bfs.Options{}, nil, parallel.Live())
	for v := 0; v < n; v++ {
		row := make([]int32, n)
		runner.Distances(int32(v), row)
		for _, d := range row {
			if d < 0 {
				return Result{}, fmt.Errorf("stress: graph is not connected")
			}
		}
		dist[v] = row
	}
	terms := func(i int, f func(j int32, d float64)) {
		for j := 0; j < n; j++ {
			if j != i {
				f(int32(j), float64(dist[i][j]))
			}
		}
	}
	return majorize(l, opt, terms), nil
}

// Sparse runs sparse-stress majorization: each vertex's terms are its
// graph neighbors (distance 1 or the edge weight) plus its distances to a
// set of shared pivot vertices chosen farthest-first — the pivot
// machinery ParHDE already has. The layout is refined in place.
func Sparse(g *graph.CSR, l *core.Layout, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := g.NumV
	if l.NumVertices() != n {
		return Result{}, fmt.Errorf("stress: layout has %d vertices, graph %d", l.NumVertices(), n)
	}
	p := opt.Pivots
	if p >= n {
		p = n - 1
	}
	b := linalg.NewDense(n, p)
	ps := pivot.Phase(g, b, int32(opt.Seed%uint64(n)), pivot.KCenters, bfs.Options{}, nil, nil)
	pivots := ps.Sources
	terms := func(i int, f func(j int32, d float64)) {
		for k, u := range g.Neighbors(int32(i)) {
			d := 1.0
			if g.Weighted() {
				// HDE weights are similarities; stress distances are their
				// inverse, clamped away from zero.
				if w := g.NeighborWeights(int32(i))[k]; w > 0 {
					d = 1 / w
				}
			}
			f(u, d)
		}
		for k, pv := range pivots {
			if pv == int32(i) {
				continue
			}
			d := b.At(i, k)
			if d > 0 {
				f(pv, d)
			}
		}
	}
	return majorize(l, opt, terms), nil
}

// majorize runs SMACOF sweeps: each vertex moves to the weighted average
// of the positions its terms prescribe, with weights w = 1/d². Vertices
// are updated Jacobi-style (from the previous iterate) in parallel, which
// preserves the majorization monotonicity in practice and parallelizes
// cleanly.
func majorize(l *core.Layout, opt Options, terms func(i int, f func(j int32, d float64))) Result {
	n := l.NumVertices()
	dims := l.Dims()
	optimalScale(l, terms)
	next := linalg.NewDense(n, dims)
	res := Result{}
	prevStress := math.Inf(1)
	for it := 0; it < opt.MaxIters; it++ {
		var stressSum float64
		var termCount int64
		stressSum = parallel.SumFloat64(n, func(i int) float64 {
			var s float64
			terms(i, func(j int32, d float64) {
				s += pairStress(l, i, int(j), d)
			})
			return s
		})
		termCount = parallel.SumInt64(n, func(i int) int64 {
			var c int64
			terms(i, func(int32, float64) { c++ })
			return c
		})
		if termCount > 0 {
			stressSum /= float64(termCount)
		}
		res.History = append(res.History, stressSum)
		res.Stress = stressSum
		res.Iterations = it
		if prevStress-stressSum <= opt.Tol*math.Abs(prevStress) && it > 0 {
			break
		}
		prevStress = stressSum

		parallel.For(n, func(i int) {
			var wsum float64
			acc := make([]float64, dims)
			terms(i, func(j int32, d float64) {
				if d <= 0 {
					return
				}
				w := 1 / (d * d)
				// distance between current positions
				var norm float64
				for k := 0; k < dims; k++ {
					diff := l.Coords.At(i, k) - l.Coords.At(int(j), k)
					norm += diff * diff
				}
				norm = math.Sqrt(norm)
				for k := 0; k < dims; k++ {
					xj := l.Coords.At(int(j), k)
					target := xj
					if norm > 1e-12 {
						target = xj + d*(l.Coords.At(i, k)-xj)/norm
					}
					acc[k] += w * target
				}
				wsum += w
			})
			if wsum > 0 {
				for k := 0; k < dims; k++ {
					next.Set(i, k, acc[k]/wsum)
				}
			} else {
				for k := 0; k < dims; k++ {
					next.Set(i, k, l.Coords.At(i, k))
				}
			}
		})
		l.Coords.Data, next.Data = next.Data, l.Coords.Data
	}
	return res
}

// optimalScale rescales the layout by the α minimizing
// Σ w (α‖δ_ij‖ − d_ij)², w = 1/d², so that seed layouts of arbitrary
// scale (HDE axes are unit vectors) start from their best-possible stress.
func optimalScale(l *core.Layout, terms func(i int, f func(j int32, d float64))) {
	n := l.NumVertices()
	num := parallel.SumFloat64(n, func(i int) float64 {
		var s float64
		terms(i, func(j int32, d float64) {
			if d > 0 {
				s += dist(l, i, int(j)) / d
			}
		})
		return s
	})
	den := parallel.SumFloat64(n, func(i int) float64 {
		var s float64
		terms(i, func(j int32, d float64) {
			if d > 0 {
				dd := dist(l, i, int(j))
				s += dd * dd / (d * d)
			}
		})
		return s
	})
	if den > 0 && num > 0 {
		alpha := num / den
		for k := 0; k < l.Dims(); k++ {
			linalg.Scale(alpha, l.Coords.Col(k))
		}
	}
}

func dist(l *core.Layout, i, j int) float64 {
	var s float64
	for k := 0; k < l.Dims(); k++ {
		d := l.Coords.At(i, k) - l.Coords.At(j, k)
		s += d * d
	}
	return math.Sqrt(s)
}

func pairStress(l *core.Layout, i, j int, d float64) float64 {
	var norm float64
	for k := 0; k < l.Dims(); k++ {
		diff := l.Coords.At(i, k) - l.Coords.At(j, k)
		norm += diff * diff
	}
	norm = math.Sqrt(norm)
	if d <= 0 {
		return 0
	}
	e := norm - d
	return e * e / (d * d)
}
