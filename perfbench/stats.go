package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed exactly
// as Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method, including its clamping), so spreads computed here match the ones
// an external checker computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, and the nearest-rank value at that percentile. With
// fewer than 20 samples no percentile qualifies and ok is false.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		idx := nearestRank(p, n)
		if n-1-idx >= 10 {
			return p, s[idx], true
		}
	}
	return 0, math.NaN(), false
}

// nearestRank is the 0-based index of the p-th percentile of n sorted
// samples by the nearest-rank rule: the smallest index whose cumulative
// share reaches p.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float rounding (99.9/100·10000 = 9990.000…02)
	// from pushing an exact rank up by one.
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Computed byte and flop counts. They follow from array sizes alone and
// ignore cache reuse and misses, so rates derived from them are labelled
// "computed".

// csrBytes is the size of an unweighted CSR: int64 offsets plus int32
// adjacency entries (nnz = 2m for an undirected graph).
func csrBytes(n int, nnz int64) float64 {
	return 8*float64(n+1) + 4*float64(nnz)
}

// lsBytes is one pass of P = L·S over an n×s panel: the CSR, S read and P
// written (2·n·s float64s), and the degree vector.
func lsBytes(n int, nnz int64, s int) float64 {
	return csrBytes(n, nnz) + 2*8*float64(n)*float64(s) + 8*float64(n)
}

// gemmFlops is Z = Sᵀ·P for n×s panels: 2·n·s² flops.
func gemmFlops(n, s int) float64 {
	return 2 * float64(n) * float64(s) * float64(s)
}

// bfsBytes is the traffic of `traversals` single-source BFS runs that
// together examined `scanned` adjacency entries: each run reads the
// offsets and writes an int32 distance per vertex, and every scanned
// entry is one int32 read.
func bfsBytes(n, traversals int, scanned int64) float64 {
	return float64(traversals)*(8*float64(n+1)+4*float64(n)) + 4*float64(scanned)
}

// triadBytes is the STREAM convention for a[i] = b[i] + q·c[i] over n
// float64s: two reads and one write per element.
func triadBytes(n int) float64 {
	return 24 * float64(n)
}
