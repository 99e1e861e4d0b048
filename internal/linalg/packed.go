package linalg

// PackRows is the row height of one packed output chunk of
// LapMulDenseTiledPackedBudget: a worker fuses PackRows rows of L·S into
// its arena slot (PackRows·s floats — 128 KiB at s = 32) and unpacks
// them into the column-major result while the slot is still
// cache-resident. Chunk boundaries never change results: every output
// row is computed whole inside one chunk.
const PackRows = 512

// PackArena holds the per-worker chunk buffers of the packed L·S kernel.
// Each worker of a fan-out owns one slot, so slots are written and read
// by exactly one goroutine per call. A zero PackArena is ready to use;
// Ensure grows it on demand and never sheds capacity, so a pooled
// workspace that carries one arena across runs allocates only when the
// worker count or chunk footprint actually grows. Slot sizing is the
// caller's worker count snapshotted at kernel entry — a live budget's
// GOMAXPROCS moving mid-call cannot outrun the arena (the kernel fans
// out across exactly the snapshotted count).
type PackArena struct {
	buf []float64
	per int
}

// Ensure shapes the arena to workers slots of per floats each, growing
// the backing storage only when the total footprint exceeds its capacity.
func (pa *PackArena) Ensure(workers, per int) {
	if workers < 1 {
		workers = 1
	}
	need := workers * per
	if cap(pa.buf) < need {
		pa.buf = make([]float64, need)
	}
	pa.buf = pa.buf[:cap(pa.buf)]
	pa.per = per
}

// slot returns worker w's packed-chunk buffer (after Ensure).
func (pa *PackArena) slot(w int) []float64 {
	return pa.buf[w*pa.per : (w+1)*pa.per]
}
