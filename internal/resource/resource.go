// Package resource implements the per-query memory ledger behind
// fluodb's soft memory budgets: byte counters for every pool an online
// query pins (group-table banks, the uncertain cache, columnar scratch,
// the segment cache, checkpoint encode buffers) plus
// a process-level GC sampler over runtime/metrics. Each byte is charged
// to one pool once: a fact table's segments once however many blocks
// stream it, and the pool workers' staged uncertain rows as scratch, so
// the uncertain-cache pool is what budget eviction can free.
//
// The ledger itself is passive arithmetic: the engine charges bytes at
// its existing allocation seams (worker-local plain int64 counters,
// drained at batch barriers) and calls Observe once per committed
// mini-batch. Nothing here takes locks or allocates in steady state, so
// the ledger can stay on without disturbing the 0 allocs/tuple hot
// path. All methods are nil-safe: a detached (*Ledger)(nil) ignores
// charges and reports zeros.
package resource

// Category names one accounting pool of the ledger. Categories are
// residency pools, not allocation-rate counters: each Observe records
// the bytes currently pinned per pool.
type Category int

const (
	// GroupTables: open-addressing group tables — slot arrays, banked
	// main/bootstrap accumulator banks, generic per-trial states
	// (including free-listed recycled entries still pinned).
	GroupTables Category = iota
	// UncertainCache: the blocks' uncertainRow caches (lineage headers
	// and fact ordinals; a cached tuple's weights are regenerated, not
	// stored) — exactly what budget eviction can free.
	UncertainCache
	// ColumnarScratch: per-worker tri-state/selection/weight vectors of
	// the vectorized classify/fold path, the snapshot evaluators'
	// scratch, and the pool workers' stage buffers of uncertain rows
	// (emptied by every merge, their capacity kept).
	ColumnarScratch
	// SegmentCache: storage.Table columnar segment residency (typed
	// banks, null bitmaps, dictionaries), charged once per fact table
	// however many blocks stream it.
	SegmentCache
	// Checkpoint: the most recent checkpoint encode buffer.
	Checkpoint

	NumCategories
)

var categoryNames = [NumCategories]string{
	"group-tables",
	"uncertain-cache",
	"col-scratch",
	"segment-cache",
	"checkpoint",
}

// String returns the stable label of the category, used for Prometheus
// label values and report lines.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return "unknown"
	}
	return categoryNames[c]
}

// Ledger tracks per-category byte residency and the total's peak for
// one query.
// It is owned by the engine's controller goroutine and updated only at
// mini-batch boundaries; it is not safe for concurrent use.
type Ledger struct {
	bytes [NumCategories]int64
	// peakTotal is the high-water mark of the summed residency.
	peakTotal int64
}

// Set records the current residency of one category. Negative values
// clamp to zero (a pool cannot pin negative bytes).
func (l *Ledger) Set(c Category, n int64) {
	if l == nil || c < 0 || c >= NumCategories {
		return
	}
	if n < 0 {
		n = 0
	}
	l.bytes[c] = n
}

// Bytes reports the last observed residency of one category.
func (l *Ledger) Bytes(c Category) int64 {
	if l == nil || c < 0 || c >= NumCategories {
		return 0
	}
	return l.bytes[c]
}

// Total sums the current residency across all categories.
func (l *Ledger) Total() int64 {
	if l == nil {
		return 0
	}
	var t int64
	for _, b := range l.bytes {
		t += b
	}
	return t
}

// Observe commits the current residency as one sample, advancing the
// total peak. Call once per committed mini-batch, after every category
// has been Set.
func (l *Ledger) Observe() {
	if l == nil {
		return
	}
	if t := l.Total(); t > l.peakTotal {
		l.peakTotal = t
	}
}

// PeakTotal reports the high-water summed residency.
func (l *Ledger) PeakTotal() int64 {
	if l == nil {
		return 0
	}
	return l.peakTotal
}

// RestorePeak raises the peak water marks to at least total, used when
// resuming from a checkpoint so peaks survive DB.ResumeOnline.
func (l *Ledger) RestorePeak(total int64) {
	if l == nil {
		return
	}
	if total > l.peakTotal {
		l.peakTotal = total
	}
}

// Usage snapshots the ledger (plus engine-stamped GC telemetry and
// degradation state) in wire form; it rides on Snapshot.Resources and
// the dashboard's SSE "mem" payload.
type Usage struct {
	// Per-pool residency in bytes at the most recent mini-batch
	// boundary.
	GroupTableBytes int64 `json:"group_tables"`
	UncertainBytes  int64 `json:"uncertain"`
	ColScratchBytes int64 `json:"col_scratch"`
	SegCacheBytes   int64 `json:"segment_cache"`
	CheckpointBytes int64 `json:"checkpoint,omitempty"`
	// TotalBytes sums the pools; PeakBytes is the query's high-water
	// total so far.
	TotalBytes int64 `json:"total"`
	PeakBytes  int64 `json:"peak"`
	// Process-level GC telemetry (runtime/metrics), attributed to the
	// mini-batch that just committed: live heap and GC goal at the
	// boundary, plus pause time, GC CPU time and GC cycles that elapsed
	// during the batch.
	HeapLiveBytes int64 `json:"heap_live,omitempty"`
	HeapGoalBytes int64 `json:"heap_goal,omitempty"`
	GCPauseNS     int64 `json:"gc_pause_ns,omitempty"`
	GCCPUNS       int64 `json:"gc_cpu_ns,omitempty"`
	GCCycles      int64 `json:"gc_cycles,omitempty"`
	AllocBytes    int64 `json:"alloc_bytes,omitempty"`
	// Budget state: the soft budget (0 = unbudgeted) and the highest
	// degradation rung engaged (0 = none, 1 = segment cache dropped,
	// 2 = uncertain eviction).
	BudgetBytes int64 `json:"budget,omitempty"`
	DegradeRung int   `json:"degrade_rung,omitempty"`
}

// Snapshot fills the ledger-owned fields of a Usage (pool residencies,
// total, peak). The engine stamps GC and budget fields on top.
func (l *Ledger) Snapshot() Usage {
	if l == nil {
		return Usage{}
	}
	u := Usage{
		GroupTableBytes: l.bytes[GroupTables],
		UncertainBytes:  l.bytes[UncertainCache],
		ColScratchBytes: l.bytes[ColumnarScratch],
		SegCacheBytes:   l.bytes[SegmentCache],
		CheckpointBytes: l.bytes[Checkpoint],
		PeakBytes:       l.peakTotal,
	}
	u.TotalBytes = l.Total()
	if u.TotalBytes > u.PeakBytes {
		u.PeakBytes = u.TotalBytes
	}
	return u
}
