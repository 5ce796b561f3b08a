package storage

// Deterministic partitioning for the runtime's partition → fold →
// ordered-merge step (core/parallel.go): the parallel batch feed splits
// with SliceRanges, after sizing the split with ClampParts. Contiguity
// is what keeps every parallel trajectory bit-identical to the serial
// run — merging contiguous slices in slice order reproduces the serial
// group insertion order exactly, for any part count.

// SliceRange is one part's contiguous [Lo, Hi) row range.
type SliceRange struct {
	Lo, Hi int
}

// SliceRanges partitions [0, n) into parts contiguous ranges, the last
// absorbing the remainder. parts ≤ 1 or n ≤ 0 yield a single range
// covering everything.
func SliceRanges(n, parts int) []SliceRange {
	if parts < 1 {
		parts = 1
	}
	if n < 0 {
		n = 0
	}
	out := make([]SliceRange, parts)
	size := n / parts
	for p := 0; p < parts; p++ {
		lo := p * size
		hi := lo + size
		if p == parts-1 {
			hi = n
		}
		out[p] = SliceRange{Lo: lo, Hi: hi}
	}
	return out
}

// ClampParts sizes a split of n rows: at most parts, each part at least
// minRows long, and a single part whenever n < 2·minRows (one part with
// the full dispatch/merge overhead would only be slower than folding in
// place). The result is always ≥ 1.
func ClampParts(n, parts, minRows int) int {
	if minRows < 1 {
		minRows = 1
	}
	if parts <= 1 || n < 2*minRows {
		return 1
	}
	if max := n / minRows; parts > max {
		parts = max
	}
	return parts
}
