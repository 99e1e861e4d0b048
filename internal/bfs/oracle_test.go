package bfs

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// msbfsTopDown is the top-down-only multi-source engine: one full-length
// sweep of the frontier slab per level plus a separate full-length
// next-clear. It is the bitwise-equivalence oracle the
// direction-optimizing engine is tested and fuzzed against, and the
// baseline of the msbfs_diropt_vs_topdown perf gate.
func msbfsTopDown(bud parallel.Budget, g *graph.CSR, sources []int32, dists [][]int32, sc *Scratch) Stats {
	n := g.NumV
	serial := bud.Serial(n)
	for s := range sources {
		d := dists[s]
		if serial {
			for i := range d {
				d[i] = Unreached
			}
		} else {
			bud.For(n, func(i int) { d[i] = Unreached })
		}
	}
	var seen, frontier, next []uint64
	if sc != nil {
		sc.ensureMS(n)
		seen, frontier, next = sc.msSeen, sc.msFront, sc.msNext
		if serial {
			for i := 0; i < n; i++ {
				seen[i], frontier[i], next[i] = 0, 0, 0
			}
		} else {
			bud.For(n, func(i int) { seen[i], frontier[i], next[i] = 0, 0, 0 })
		}
	} else {
		seen = make([]uint64, n)     // searches that have reached each vertex
		frontier = make([]uint64, n) // searches whose current level includes the vertex
		next = make([]uint64, n)
	}

	for s, src := range sources {
		bit := uint64(1) << uint(s)
		seen[src] |= bit
		frontier[src] |= bit
		dists[s][src] = 0
	}

	var st Stats
	level := int32(0)
	active := true
	// The parallel level body is hoisted out of the loop (reading its
	// level state through captured variables) so the per-level closure is
	// constructed once per traversal, not once per level.
	var scanned, any int64
	step := func(lo, hi int) {
		var localScan int64
		var localAny int64
		for v := lo; v < hi; v++ {
			f := frontier[v]
			if f == 0 {
				continue
			}
			adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
			localScan += int64(len(adj))
			for _, u := range adj {
				// Searches in f that have not yet reached u.
				for {
					old := atomic.LoadUint64(&seen[u])
					newBits := f &^ old
					if newBits == 0 {
						break
					}
					if atomic.CompareAndSwapUint64(&seen[u], old, old|newBits) {
						// Claimed newBits for u: record distances and
						// queue u for those searches.
						for b := newBits; b != 0; b &= b - 1 {
							dists[bits.TrailingZeros64(b)][u] = level
						}
						atomicOr(&next[u], newBits)
						localAny = 1
						break
					}
				}
			}
		}
		atomic.AddInt64(&scanned, localScan)
		atomic.AddInt64(&any, localAny)
	}
	clearNext := func(i int) { next[i] = 0 }
	for active {
		st.Levels++
		level++
		scanned, any = 0, 0
		if serial {
			// Plain single-worker sweep: no atomics, no closures.
			for v := 0; v < n; v++ {
				f := frontier[v]
				if f == 0 {
					continue
				}
				adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
				scanned += int64(len(adj))
				for _, u := range adj {
					newBits := f &^ seen[u]
					if newBits == 0 {
						continue
					}
					seen[u] |= newBits
					for b := newBits; b != 0; b &= b - 1 {
						dists[bits.TrailingZeros64(b)][u] = level
					}
					next[u] |= newBits
					any = 1
				}
			}
		} else {
			bud.ForBlock(n, step)
		}
		st.ScannedEdges += scanned
		st.TopDownSteps++
		frontier, next = next, frontier
		if serial {
			for i := range next {
				next[i] = 0
			}
		} else {
			bud.For(n, clearNext)
		}
		active = any != 0
	}
	st.Levels-- // last round discovered nothing
	return st
}
