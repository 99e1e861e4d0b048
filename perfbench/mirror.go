package main

import (
	"math/rand/v2"

	"repro/internal/graph"
)

// mirror is the client's copy of the served graph. The benchmark edits it
// with every batch it sends, so it can generate valid mutations, predict
// what the server applies, and rebuild the graph the server lays out.
type mirror struct {
	adj   [][]int32  // unsorted neighbor lists
	edges [][2]int32 // every edge ever present; deleted ones are skipped on sampling
	m     int64      // live edges
}

func newMirror(g *graph.CSR) *mirror {
	mi := &mirror{adj: make([][]int32, g.NumV), m: g.NumEdges()}
	for v := int32(0); int(v) < g.NumV; v++ {
		nb := g.Neighbors(v)
		mi.adj[v] = append([]int32(nil), nb...)
		for _, u := range nb {
			if v < u {
				mi.edges = append(mi.edges, [2]int32{v, u})
			}
		}
	}
	return mi
}

func (mi *mirror) numV() int { return len(mi.adj) }

func (mi *mirror) has(u, v int32) bool {
	a, b := u, v
	if len(mi.adj[b]) < len(mi.adj[a]) {
		a, b = b, a
	}
	for _, x := range mi.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

func (mi *mirror) addEdge(u, v int32) bool {
	if mi.has(u, v) {
		return false
	}
	mi.adj[u] = append(mi.adj[u], v)
	mi.adj[v] = append(mi.adj[v], u)
	mi.edges = append(mi.edges, [2]int32{min(u, v), max(u, v)})
	mi.m++
	return true
}

func (mi *mirror) unlink(u, v int32) {
	l := mi.adj[u]
	for i, x := range l {
		if x == v {
			l[i] = l[len(l)-1]
			mi.adj[u] = l[:len(l)-1]
			return
		}
	}
}

func (mi *mirror) delEdge(u, v int32) bool {
	if !mi.has(u, v) {
		return false
	}
	mi.unlink(u, v)
	mi.unlink(v, u)
	mi.m--
	return true
}

// delVertex isolates v and returns how many edges it removed.
func (mi *mirror) delVertex(v int32) int {
	nb := mi.adj[v]
	for _, u := range nb {
		mi.unlink(u, v)
	}
	mi.adj[v] = nil
	mi.m -= int64(len(nb))
	return len(nb)
}

// mutation is one PATCH /graphs/{name} op in wire form.
type mutation struct {
	Op    string `json:"op"`
	U     int32  `json:"u"`
	V     int32  `json:"v"`
	Count int    `json:"count,omitempty"`
}

// Op mix of a batch: mostly edge inserts and deletes, with a small share
// of vertex inserts and deletes (each of which leaves isolated vertices).
const (
	pAddEdge     = 0.47
	pDelEdge     = 0.47
	pAddVertices = 0.03
)

// batch draws `size` mutations, applies each to the mirror as it is drawn
// (so later ops see earlier ones, as on the server), and returns them with
// the number the server should report as applied.
func (mi *mirror) batch(rng *rand.Rand, size int) ([]mutation, int) {
	ops := make([]mutation, 0, size)
	applied := 0
	for len(ops) < size {
		x := rng.Float64()
		switch {
		case x < pAddEdge:
			n := int32(mi.numV())
			for try := 0; try < 16; try++ {
				u, v := rng.Int32N(n), rng.Int32N(n)
				if u != v && mi.addEdge(u, v) {
					ops = append(ops, mutation{Op: "addEdge", U: u, V: v})
					applied++
					break
				}
			}
		case x < pAddEdge+pDelEdge:
			for try := 0; try < 64 && len(mi.edges) > 0; try++ {
				e := mi.edges[rng.IntN(len(mi.edges))]
				if mi.delEdge(e[0], e[1]) {
					ops = append(ops, mutation{Op: "delEdge", U: e[0], V: e[1]})
					applied++
					break
				}
			}
		case x < pAddEdge+pDelEdge+pAddVertices:
			k := 1 + rng.IntN(2)
			mi.adj = append(mi.adj, make([][]int32, k)...)
			ops = append(ops, mutation{Op: "addVertices", Count: k})
			applied++
		default:
			v := rng.Int32N(int32(mi.numV()))
			applied += mi.delVertex(v)
			ops = append(ops, mutation{Op: "delVertex", U: v})
		}
	}
	return ops, applied
}

// csr builds the mirrored graph, isolated vertices included.
func (mi *mirror) csr() (*graph.CSR, error) {
	edges := make([]graph.Edge, 0, mi.m)
	for u, nb := range mi.adj {
		for _, v := range nb {
			if int32(u) < v {
				edges = append(edges, graph.Edge{U: int32(u), V: v})
			}
		}
	}
	return graph.FromEdges(mi.numV(), edges, graph.BuildOptions{KeepAllComponents: true})
}
