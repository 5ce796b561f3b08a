package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fluodb/internal/otrace"
)

// Span timeline integration (DESIGN.md §14). With Options.Profile the
// engine records a hierarchical timeline into its own otrace.Tracer
// (Engine.Spans):
//
//	query
//	├── batch (one per mini-batch, also under recompute/resume replays)
//	│   ├── reclassify        controller track, per block
//	│   ├── feed              controller track, per block
//	│   │   ├── task          worker tracks (part folds)
//	│   │   └── serial-retry  controller track (containment redo)
//	│   └── ranges            controller track, per block
//	├── recompute             wraps failure-recovery replays
//	├── snapshot              result materialization
//	└── checkpoint / resume
//
// Worker-track spans exist only under a feed span of their own batch:
// every pool task runs inside a workerPool.scatter barrier, so none
// outlives the phase that submitted it.
//
// Span edges fire at batch/phase granularity — never per tuple — so
// the fold hot path is untouched and the steady state allocates
// nothing (pinned by the "profiled" mode of TestFoldSteadyStateAllocs).
// The reclassify, ranges, recompute and snapshot edges share their one
// clock reading with the phase profiler (phaseBegin/phaseEnd), so a
// span's duration is exactly the phase time it accounts for.
// The currently open ancestry is carried in engine fields rather than
// threaded through every call: the controller is single-threaded, and
// workers only read the fields between a barrier's submit and wait.
// Every otrace call is nil-safe, so without Profile spans cost only
// nil checks on batch-granular paths.

// now reads the engine's phase clock: nanoseconds since the span epoch
// under Profile (so phase edges and spans share readings), since
// construction otherwise.
func (e *Engine) now() int64 {
	if e.spans != nil {
		return e.spans.Now()
	}
	return int64(time.Since(e.epoch))
}

// phaseBegin reads the clock once for a phase's opening edge and opens
// the phase's controller span at that reading.
func (e *Engine) phaseBegin(name string, parent otrace.SpanID, batch, block int) (otrace.SpanID, int64) {
	t := e.now()
	return e.sctl.BeginAt(t, name, parent, batch, block), t
}

// phaseEnd reads the clock once for the closing edge, closes the span
// and returns the phase's elapsed nanoseconds — exactly the span's
// duration.
func (e *Engine) phaseEnd(id otrace.SpanID, t0 int64) int64 {
	t := e.now()
	e.sctl.EndAt(id, t)
	return t - t0
}

// Events returns the Profile event ring (nil without Profile).
func (e *Engine) Events() *Tracer { return e.trace }

// Spans returns the Profile span timeline (nil without Profile).
func (e *Engine) Spans() *otrace.Tracer { return e.spans }

// workerSlab returns worker w's span slab (tid w+1; tid 0 is the
// controller). Nil when spans are disabled.
func (e *Engine) workerSlab(w int) *otrace.Slab {
	return e.spans.Slab(w + 1)
}

// timelineSummary renders the span timeline as a compact text section
// for Report(): per-name counts/totals and per-worker busy time.
func (e *Engine) timelineSummary() string {
	spans := e.spans.Spans()
	if len(spans) == 0 {
		return ""
	}
	type agg struct {
		n     int
		total time.Duration
	}
	byName := map[string]*agg{}
	workerBusy := map[int]time.Duration{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.Dur()
		if s.Tid > 0 {
			workerBusy[int(s.Tid)-1] += s.Dur()
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return byName[names[i]].total > byName[names[j]].total
	})
	var b strings.Builder
	b.WriteString("timeline spans:")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(&b, " %s=%d/%s", n, a.n, fmtDur(a.total))
	}
	b.WriteByte('\n')
	if len(workerBusy) > 0 {
		workers := make([]int, 0, len(workerBusy))
		for w := range workerBusy {
			workers = append(workers, w)
		}
		sort.Ints(workers)
		b.WriteString("worker busy:")
		for _, w := range workers {
			fmt.Fprintf(&b, " w%d=%s", w, fmtDur(workerBusy[w]))
		}
		b.WriteByte('\n')
	}
	if d := e.spans.DroppedSpans(); d > 0 {
		fmt.Fprintf(&b, "(%d spans dropped: slab capacity reached)\n", d)
	}
	return b.String()
}
