package core

import (
	"encoding/json"
	"io"
	"math"
	"sync"

	"fluodb/internal/otrace"
)

// Structured G-OLA event tracing. The engine's interesting decisions —
// a partial result escaping its committed variation range (§3.2), the
// first deterministic commit of a range, uncertain tuples flipping to
// certain, a recompute being triggered — used to be visible only
// through an ad-hoc debug printf. With Options.Profile the engine
// captures them as typed events in a bounded ring so tools (flbench
// -trace) and tests can replay exactly why the engine recomputed or how
// an uncertain set drained, without unbounded memory on long runs.

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
	// EvEvict: rung 2 of the MaxMemoryBytes ladder force-resolved the
	// oldest cached uncertain tuples of a block by point estimate
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
	// the first batch. Note carries the verdict — "columnar" or the
	// disqualifying reason ("rowpath:group:mixed-column", ...) — and,
	// for a block with an uncertain predicate, its classifier after a
	// comma ("columnar,tri:kernel", "rowpath:forced,tri:interp").
	EvColPlan = "columnar-plan"
)

// Event is one traced engine decision. Numeric fields are meaningful
// per kind: commit and range-failure carry the committed interval
// [Lo, Hi], the observed Point, and the epsilon Boost in force;
// uncertain-flip carries Folded/Dropped/Kept tuple counts.
type Event struct {
	Seq     uint64  `json:"seq"`
	Ms      float64 `json:"ms"` // since the span epoch
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

// Tracer is the engine's one event store: a bounded ring of Events,
// built when Options.Profile is on (Engine.Events). Emission is
// mutex-protected — events fire at block/batch granularity, never per
// tuple, so the lock is far off the fold hot path. The ring grows on
// demand up to its limit; past it the oldest events are overwritten and
// Dropped reports how many. Every event is stamped from the span
// timeline's clock, and WriteChromeTrace attaches the retained events
// to that timeline as instants, so Events, the JSONL export and the
// Chrome trace all carry the same events.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	limit int
	next  uint64 // total events ever emitted
	batch int    // current 1-based batch, stamped onto events
	spans *otrace.Tracer
}

// traceCap bounds the engine's event ring: 64k events hold every commit
// of the suite queries at benchmark scale.
const traceCap = 1 << 16

// newTracer builds a ring retaining the most recent limit events,
// stamped from the spans clock.
func newTracer(limit int, spans *otrace.Tracer) *Tracer {
	return &Tracer{limit: limit, spans: spans}
}

// Emit records an event, stamping its sequence number, its timestamp
// (Ms: milliseconds since the span epoch) and the current batch. Nil
// tracers are safe no-ops so call sites need no guards.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ts := t.spans.Now()
	ev.Seq = t.next
	ev.Ms = float64(ts) / 1e6
	ev.Batch = t.batch
	t.next++
	if len(t.ring) < t.limit {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[int(ev.Seq)%t.limit] = ev
	}
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
	if int(t.next) > t.limit {
		// Ring has wrapped: oldest retained event is at next % limit.
		at := int(t.next) % t.limit
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
	if int(t.next) <= t.limit {
		return 0
	}
	return int(t.next) - t.limit
}

// traceFault emits an EvFault event for an injected or contained fault.
// key identifies the fault class, where the table/site, w the worker
// (-1 when not worker-scoped).
func (e *Engine) traceFault(key, where string, w int, note string) {
	e.trace.Emit(Event{Kind: EvFault, Key: key, Note: where + ": " + note, Worker: w})
}

// WriteChromeTrace writes the span timeline as Chrome trace-event JSON
// with the retained events attached as instants at their own
// timestamps, correlated by Seq and Batch: faults and worker panics on
// the worker's track, everything else on the controller's. A nil tracer
// writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var spans *otrace.Tracer
	if t != nil {
		spans = t.spans
	}
	evs := t.Events()
	ins := make([]otrace.Instant, len(evs))
	for i, ev := range evs {
		tid := 0
		if (ev.Kind == EvFault || ev.Kind == EvWorkerPanic) && ev.Worker >= 0 {
			tid = ev.Worker + 1
		}
		note := ev.Note
		if note == "" {
			note = ev.Key
		}
		ins[i] = otrace.Instant{Name: ev.Kind, Tid: int32(tid), Batch: int32(ev.Batch),
			Seq: ev.Seq, Ts: int64(math.Round(ev.Ms * 1e6)), Note: note}
	}
	return spans.WriteChromeTrace(w, ins)
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
