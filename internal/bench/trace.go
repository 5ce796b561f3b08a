package bench

import (
	"fmt"
	"io"

	"fluodb/internal/core"
	"fluodb/internal/plan"
	"fluodb/internal/workload"
)

// Structured trace capture: run one suite query with the engine's event
// tracer and phase profiler enabled and dump everything the engine
// decided — range commits, variation-range failures, uncertain flips,
// recompute triggers — as JSON Lines. This is flbench -trace.

// TraceResult summarizes a traced run.
type TraceResult struct {
	Query      string
	Events     int
	Dropped    int
	ByKind     map[string]int
	Recomputes int
	Report     string // the engine's per-phase text profile
	// Span-timeline capture (flbench -spans): recorded span count and
	// slab overflow drops. Zero when no spans writer was supplied.
	Spans        int
	DroppedSpans int
}

// TraceRun executes one suite query (default Q17, the nested
// non-monotonic workload) with Options.Profile, streaming the engine's
// retained ring events to w as JSONL. When spansW is non-nil it also
// writes the run's span timeline there as Chrome trace-event JSON
// (Perfetto-loadable), with the ring events attached as instants.
func TraceRun(cfg Config, queryName string, w, spansW io.Writer) (*TraceResult, error) {
	cfg = cfg.WithDefaults()
	if queryName == "" {
		queryName = "Q17"
	}
	wq, ok := workload.ByName(queryName)
	if !ok {
		return nil, fmt.Errorf("bench trace: unknown suite query %q", queryName)
	}
	cat := catalogFor(wq, cfg)
	q, err := plan.Compile(wq.SQL, cat)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(q, cat, core.Options{
		Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.EngineSeed(),
		Profile: true,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	tracer, spans := eng.Events(), eng.Spans()
	spans.SetLabel(wq.Name + ": " + wq.SQL)
	if _, err := eng.Run(nil); err != nil {
		return nil, err
	}
	if err := tracer.WriteJSONL(w); err != nil {
		return nil, err
	}
	res := &TraceResult{
		Query:      wq.Name,
		Dropped:    tracer.Dropped(),
		ByKind:     map[string]int{},
		Recomputes: eng.Metrics().Recomputes,
		Report:     eng.Report(),
	}
	for _, ev := range tracer.Events() {
		res.Events++
		res.ByKind[ev.Kind]++
	}
	if spansW != nil {
		if err := spans.WriteChromeTrace(spansW); err != nil {
			return nil, err
		}
		res.Spans = len(spans.Spans())
		res.DroppedSpans = int(spans.DroppedSpans())
	}
	return res, nil
}

// FormatTrace renders a trace summary.
func FormatTrace(r *TraceResult) string {
	s := fmt.Sprintf("trace: %s — %d events captured (%d dropped), %d recomputes\n",
		r.Query, r.Events, r.Dropped, r.Recomputes)
	if r.Spans > 0 {
		s += fmt.Sprintf("  spans: %d recorded (%d dropped) — load the JSON into ui.perfetto.dev\n",
			r.Spans, r.DroppedSpans)
	}
	for _, kind := range []string{core.EvCommit, core.EvRangeFailure, core.EvFlip, core.EvRecompute, core.EvNoCommit} {
		if n := r.ByKind[kind]; n > 0 {
			s += fmt.Sprintf("  %-20s %d\n", kind, n)
		}
	}
	return s + r.Report
}
