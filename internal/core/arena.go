package core

import "sync"

// Uncertain rows must retain their per-trial bootstrap weights until the
// tuple classifies deterministically, but the fold loop fills weights
// into a reusable scratch buffer. weightArena gives retained copies a
// home without a per-tuple allocation: copies are bump-allocated out of
// pooled chunks, and whole chunks are recycled once the uncertain set
// they served drains.

// weightArenaChunk is the chunk size in weights (bytes).
const weightArenaChunk = 1 << 14

var weightChunkPool = sync.Pool{
	New: func() any {
		c := make([]uint8, 0, weightArenaChunk)
		return &c
	},
}

// weightArena bump-allocates weight copies out of pooled chunks.
type weightArena struct {
	cur    []uint8
	chunks []*[]uint8 // every chunk ever handed out, for release
	// bytes is the resource-ledger charge: capacity pinned by held
	// chunks. Stage-local (no atomics); transferred by adopt at the
	// batch barrier, zeroed by release.
	bytes int64
}

// hold copies w into the arena and returns the stable copy.
func (a *weightArena) hold(w []uint8) []uint8 {
	if len(w) == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < len(w) {
		c := weightChunkPool.Get().(*[]uint8)
		if cap(*c) < len(w) {
			// Oversized request (Trials > chunk size): dedicated chunk.
			big := make([]uint8, 0, len(w))
			c = &big
		}
		a.chunks = append(a.chunks, c)
		a.cur = (*c)[:0]
		a.bytes += int64(cap(*c))
	}
	n := len(a.cur)
	a.cur = a.cur[: n+len(w) : cap(a.cur)]
	s := a.cur[n : n+len(w) : n+len(w)]
	copy(s, w)
	return s
}

// release returns every chunk to the pool. Only safe once nothing
// references slices handed out by hold (the uncertain set is empty or
// being discarded).
func (a *weightArena) release() {
	for _, c := range a.chunks {
		*c = (*c)[:0]
		weightChunkPool.Put(c)
	}
	// Keep the chunk list's capacity: a cache that drains and refills
	// every batch then holds weights without allocating.
	clear(a.chunks)
	a.chunks, a.cur = a.chunks[:0], nil
	a.bytes = 0
}

// adopt transfers o's chunks into a (after a stage merge, the
// destination's uncertain set owns slices allocated from o).
func (a *weightArena) adopt(o *weightArena) {
	a.chunks = append(a.chunks, o.chunks...)
	a.bytes += o.bytes
	o.chunks, o.cur, o.bytes = nil, nil, 0
}
