// Package otrace records hierarchical spans for online queries:
// query → mini-batch → phase → per-worker fold task, plus serial-retry
// ladders, reclassification passes and checkpoint/resume edges. It
// follows the same discipline as the phase profiler (DESIGN.md §9):
// span edges happen at batch/phase
// granularity — never per tuple — each edge costs one monotonic clock
// read (shared with the phase profiler through BeginAt/EndAt), and
// spans land in preallocated per-track slabs so the steady state
// allocates nothing. Every method is nil-safe: a nil *Tracer or
// nil *Slab is a no-op, so call sites need no `if enabled` guards.
package otrace

import (
	"sync"
	"time"
)

// SpanID identifies a span within one Tracer. The zero value means
// "no span" — Begin on a full slab returns 0, and End/child calls with
// a zero ID are no-ops, so overflow degrades to dropped spans rather
// than corrupt nesting. Encoding: bits 40+ hold tid+1, low 40 bits
// hold the slab-local index+1.
type SpanID uint64

func makeSpanID(tid, idx int) SpanID {
	return SpanID(uint64(tid+1)<<40 | uint64(idx+1))
}

func (id SpanID) tid() int   { return int(uint64(id)>>40) - 1 }
func (id SpanID) index() int { return int(uint64(id)&(1<<40-1)) - 1 }

// Span is one timed interval. Start/End are nanoseconds since the
// tracer epoch (one shared time.Time, so spans from different slabs
// compare directly). End is -1 while the span is open.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Tid    int32 // track: 0 = controller, 1..P = workers
	Batch  int32 // mini-batch index, -1 if not batch-scoped
	Block  int32 // block (runner) index, -1 if not block-scoped
	Start  int64
	End    int64
}

// Dur returns the span duration, clamping open spans to zero.
func (s Span) Dur() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// Instant is a point event attached to the timeline at export
// (WriteChromeTrace) — one core.Tracer ring event, correlated by Seq
// and Batch. The tracer itself stores none.
type Instant struct {
	Name  string
	Tid   int32
	Batch int32
	Seq   uint64 // core trace ring sequence number
	Ts    int64  // ns since tracer epoch
	Note  string
}

// Slab is a preallocated per-track span store. One goroutine owns a
// slab's Begin/End calls at any time (controller or one pool worker);
// the mutex only serializes against snapshot reads, so it is
// uncontended on the hot path.
type Slab struct {
	tr      *Tracer
	tid     int
	mu      sync.Mutex
	spans   []Span
	dropped int
}

// Tracer holds the epoch and the per-track slabs for one query.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	slabs   []*Slab
	slabCap int
	label   string
}

// DefaultSlabCapacity bounds spans per track. Batch-granularity spans
// accrue a handful per batch per track, so this covers thousands of
// batches.
const DefaultSlabCapacity = 1 << 14

// NewTracer creates a span tracer. cap <= 0 picks DefaultSlabCapacity
// for each slab.
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultSlabCapacity
	}
	return &Tracer{epoch: time.Now(), slabCap: cap}
}

// SetLabel names the traced query; exporters surface it as the
// process name.
func (t *Tracer) SetLabel(s string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = s
	t.mu.Unlock()
}

// Label returns the query label set via SetLabel.
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.label
}

// Now returns nanoseconds since the tracer epoch (monotonic), the
// timestamp BeginAt, EndAt and Instant.Ts carry. A nil tracer reads 0.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Slab returns the slab for track tid, creating it (and any gaps) on
// first use. Slabs are created outside the steady state — at pool
// construction or first batch — so the allocation here never lands on
// a per-tuple path.
func (t *Tracer) Slab(tid int) *Slab {
	if t == nil || tid < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.slabs) <= tid {
		t.slabs = append(t.slabs, nil)
	}
	if t.slabs[tid] == nil {
		t.slabs[tid] = &Slab{tr: t, tid: tid, spans: make([]Span, 0, t.slabCap)}
	}
	return t.slabs[tid]
}

// Begin opens a span on the slab at the current time and returns its
// ID. A full slab counts a drop and returns 0. batch/block < 0 mean
// unscoped.
func (s *Slab) Begin(name string, parent SpanID, batch, block int) SpanID {
	if s == nil {
		return 0
	}
	return s.BeginAt(s.tr.Now(), name, parent, batch, block)
}

// BeginAt is Begin at a caller-read timestamp (Tracer.Now), so one
// clock reading can open the span and also feed another account.
func (s *Slab) BeginAt(ts int64, name string, parent SpanID, batch, block int) SpanID {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if len(s.spans) == cap(s.spans) {
		s.dropped++
		s.mu.Unlock()
		return 0
	}
	id := makeSpanID(s.tid, len(s.spans))
	s.spans = append(s.spans, Span{
		ID: id, Parent: parent, Name: name,
		Tid: int32(s.tid), Batch: int32(batch), Block: int32(block),
		Start: ts, End: -1,
	})
	s.mu.Unlock()
	return id
}

// End closes a span opened on this slab at the current time. Zero or
// foreign IDs are ignored (a dropped Begin yields a harmless End).
func (s *Slab) End(id SpanID) {
	if s == nil || id == 0 {
		return
	}
	s.EndAt(id, s.tr.Now())
}

// EndAt is End at a caller-read timestamp (Tracer.Now).
func (s *Slab) EndAt(id SpanID, ts int64) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	if i := id.index(); id.tid() == s.tid && i >= 0 && i < len(s.spans) {
		s.spans[i].End = ts
	}
	s.mu.Unlock()
}

// Dropped reports spans discarded because the slab was full.
func (s *Slab) Dropped() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Spans snapshots all recorded spans across slabs, ordered by track
// then record order. Open spans are returned with End = -1.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	slabs := append([]*Slab(nil), t.slabs...)
	t.mu.Unlock()
	var out []Span
	for _, s := range slabs {
		if s == nil {
			continue
		}
		s.mu.Lock()
		out = append(out, s.spans...)
		s.mu.Unlock()
	}
	return out
}

// DroppedSpans totals drops across all slabs.
func (t *Tracer) DroppedSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	slabs := append([]*Slab(nil), t.slabs...)
	t.mu.Unlock()
	n := 0
	for _, s := range slabs {
		n += s.Dropped()
	}
	return n
}
