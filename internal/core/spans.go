package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fluodb/internal/otrace"
)

// Span timeline integration (DESIGN.md §14). The engine records a
// hierarchical timeline into the caller-supplied otrace.Tracer:
//
//	query
//	├── batch (one per mini-batch, also under recompute/resume replays)
//	│   ├── reclassify        controller track, per block
//	│   │   └── reclass-task  worker tracks (parallel tri-decisions)
//	│   ├── feed              controller track, per block
//	│   │   ├── task          worker tracks (part folds)
//	│   │   └── serial-retry  controller track (containment redo)
//	│   └── ranges            controller track, per block
//	├── recompute             wraps failure-recovery replays
//	├── snapshot              result materialization
//	└── checkpoint / resume
//
// Worker-track spans exist only under a feed or reclassify span of their
// own batch: every pool task runs inside a workerPool.scatter barrier,
// so none outlives the phase that submitted it.
//
// Span edges fire at batch/phase granularity — never per tuple — so
// the fold hot path is untouched and the steady state allocates
// nothing (pinned by the "spanned" mode of TestFoldSteadyStateAllocs).
// The currently open ancestry is carried in engine fields rather than
// threaded through every call: the controller is single-threaded, and
// workers only read the fields between a barrier's submit and wait.
// Every otrace call is nil-safe, so disabled spans cost only nil
// checks on batch-granular paths.

// spanInstant is the Tracer mirror hook: ring events attach to the
// timeline as instant events, correlated by Seq/Batch. Worker-scoped
// kinds land on the worker's track; everything else on the controller.
func (e *Engine) spanInstant(ev Event) {
	tid := 0
	switch ev.Kind {
	case EvFault, EvWorkerPanic:
		if ev.Worker >= 0 {
			tid = ev.Worker + 1
		}
	}
	note := ev.Note
	if note == "" {
		note = ev.Key
	}
	e.spans.Instant(ev.Kind, tid, ev.Batch, ev.Seq, note)
}

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
