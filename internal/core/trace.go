package core

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Structured G-OLA event tracing. The engine's interesting decisions —
// a partial result escaping its committed variation range (§3.2), the
// first deterministic commit of a range, uncertain tuples flipping to
// certain, a recompute being triggered — used to be visible only
// through an ad-hoc debug printf. The Tracer captures them as typed
// events in a bounded ring so tools (flbench -trace) and tests can
// replay exactly why the engine recomputed or how an uncertain set
// drained, without unbounded memory on long runs.

// Event kinds.
const (
	// EvCommit: a variation range was committed for a parameter
	// (scalar, group key, or set membership) for the first time.
	EvCommit = "commit"
	// EvRangeFailure: a freshly folded estimate escaped its committed
	// variation range, forcing a recompute of dependent blocks.
	EvRangeFailure = "range-failure"
	// EvFlip: cached uncertain tuples resolved during reclassification —
	// folded (matched after all) or dropped (provably excluded).
	EvFlip = "uncertain-flip"
	// EvRecompute: the engine started a failure-recovery replay.
	EvRecompute = "recompute"
	// EvNoCommit: replay kept failing and the engine fell back to
	// uncommitted (exact-to-date) evaluation for the batch.
	EvNoCommit = "no-commit-fallback"
	// EvDetViolation: the invariant audit (Engine.AuditInvariants) found
	// a surviving committed decision contradicted by the current point
	// state. Unlike EvRangeFailure this is not recovered by replay — it
	// means a deterministic decision the engine stood by was wrong.
	EvDetViolation = "det-violation"
	// EvFault: a chaos-injected fault fired (or a real worker panic was
	// contained). Key carries the fault kind, Worker the affected worker.
	EvFault = "fault-injected"
	// EvWorkerPanic: a pool task panicked and was contained; the
	// worker's stage is quarantined and its part redone.
	EvWorkerPanic = "worker-panic"
	// EvSerialRetry: a failed part of a parallel pass was redone on the
	// controller (Worker carries the part, Kept the attempt number).
	EvSerialRetry = "serial-retry"
	// EvEvict: the uncertain cache exceeded Options.MaxUncertainRows and
	// the oldest cached tuples were force-resolved by point estimate
	// (Folded/Dropped counts, Kept = rows remaining).
	EvEvict = "uncertain-evict"
	// EvDegrade: the MaxMemoryBytes soft budget engaged a degradation
	// rung (Kept = rung: 1 segment cache dropped, 2 uncertain eviction;
	// Note describes it). Rung 1 falls back to a bit-identical path;
	// rung 2 trades deterministic-set precision, never the answer.
	EvDegrade = "mem-degrade"
	// EvInterrupt: a deadline or cancellation stopped the prefix; the
	// last committed snapshot became the bounded-time answer.
	EvInterrupt = "deadline-interrupt"
	// EvCheckpoint / EvResume: engine state was serialized / restored.
	EvCheckpoint = "checkpoint"
	EvResume     = "resume"
	// EvColPlan: a block's columnar-eligibility verdict, emitted once on
	// the first batch. Note carries the verdict — the engaged flavor
	// ("columnar", "columnar:fused", "columnar:dims") or the
	// disqualifying reason ("rowpath:group:mixed-column", ...).
	EvColPlan = "columnar-plan"
)

// Event is one traced engine decision. Numeric fields are meaningful
// per kind: commit and range-failure carry the committed interval
// [Lo, Hi], the observed Point, and the epsilon Boost in force;
// uncertain-flip carries Folded/Dropped/Kept tuple counts.
type Event struct {
	Seq     uint64  `json:"seq"`
	Ms      float64 `json:"ms"` // since trace start
	Batch   int     `json:"batch"`
	Block   int     `json:"block,omitempty"`
	Kind    string  `json:"kind"`
	Key     string  `json:"key,omitempty"`
	Point   float64 `json:"point,omitempty"`
	Lo      float64 `json:"lo,omitempty"`
	Hi      float64 `json:"hi,omitempty"`
	Boost   float64 `json:"boost,omitempty"`
	Folded  int     `json:"folded,omitempty"`
	Dropped int     `json:"dropped,omitempty"`
	Kept    int     `json:"kept,omitempty"`
	Worker  int     `json:"worker,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// Tracer is a bounded ring of Events. Emission is mutex-protected —
// events fire at block/batch granularity, never per tuple, so the lock
// is far off the fold hot path. When the ring is full the oldest
// events are overwritten; Dropped reports how many.
type Tracer struct {
	mu      sync.Mutex
	ring    []Event
	next    uint64 // total events ever emitted
	batch   int    // current 1-based batch, stamped onto events
	start   time.Time
	started bool
	// mirror, when set, receives a copy of every emitted event after it
	// is stamped (outside the ring lock). The engine uses it to attach
	// ring events to the span timeline as instants (internal/otrace),
	// correlated by Seq/Batch.
	mirror func(Event)
}

// DefaultTraceCapacity bounds a Tracer built with NewTracer(0).
const DefaultTraceCapacity = 4096

// NewTracer builds a tracer retaining the most recent capacity events
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Emit records an event, stamping its sequence number, relative
// timestamp, and current batch. Nil tracers are safe no-ops so call
// sites need no guards.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.started {
		t.started = true
		t.start = time.Now()
	}
	ev.Seq = t.next
	ev.Ms = float64(time.Since(t.start).Microseconds()) / 1000
	ev.Batch = t.batch
	t.next++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[int(ev.Seq)%cap(t.ring)] = ev
	}
	mirror := t.mirror
	t.mu.Unlock()
	if mirror != nil {
		mirror(ev)
	}
}

// setMirror installs the post-emit hook. Call before the engine runs;
// emissions are concurrent with it otherwise.
func (t *Tracer) setMirror(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mirror = fn
	t.mu.Unlock()
}

// setBatch stamps subsequent events with the given 1-based batch.
func (t *Tracer) setBatch(b int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.batch = b
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if int(t.next) > cap(t.ring) {
		// Ring has wrapped: oldest retained event is at next % cap.
		at := int(t.next) % cap(t.ring)
		out = append(out, t.ring[at:]...)
		out = append(out, t.ring[:at]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Dropped reports how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(t.next) <= cap(t.ring) {
		return 0
	}
	return int(t.next) - cap(t.ring)
}

// traceFault emits an EvFault event for an injected or contained fault.
// key identifies the fault class, where the table/site, w the worker
// (-1 when not worker-scoped).
func (e *Engine) traceFault(key, where string, w int, note string) {
	e.trace.Emit(Event{Kind: EvFault, Key: key, Note: where + ": " + note, Worker: w})
}

// WriteJSONL streams the retained events as JSON Lines, oldest first.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
