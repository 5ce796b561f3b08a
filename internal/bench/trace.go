package bench

import (
	"bytes"
	"fmt"
	"io"

	"fluodb/internal/core"
	"fluodb/internal/otrace"
	"fluodb/internal/plan"
	"fluodb/internal/workload"
)

// Structured trace capture: run one suite query with the engine's event
// tracer and phase profiler enabled and dump everything the engine
// decided — range commits, variation-range failures, uncertain flips,
// recompute triggers — as JSON Lines, and optionally the span timeline
// as Chrome trace JSON. Both files read the one event ring, so the
// JSONL lines and the Chrome instants are the same events. This is
// flbench -trace.

// TraceResult summarizes a traced run.
type TraceResult struct {
	Query      string
	Events     int
	Dropped    int // events the ring overwrote; the only event-drop figure
	ByKind     map[string]int
	Recomputes int
	Report     string // the engine's per-phase text profile
	// Span-timeline capture (flbench -spans): span and instant counts
	// read back from the written Chrome JSON, and slab overflow drops.
	// Zero when no spans writer was supplied.
	Spans        int
	Instants     int
	DroppedSpans int
}

// TraceRun executes one suite query (default Q17, the nested
// non-monotonic workload) with Options.Profile, streaming the engine's
// retained ring events to w as JSONL. When spansW is non-nil it also
// writes the run's span timeline there as Chrome trace-event JSON
// (Perfetto-loadable), with the same ring events attached as instants;
// the written JSON is validated before it is returned.
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
		var buf bytes.Buffer
		if err := tracer.WriteChromeTrace(&buf); err != nil {
			return nil, err
		}
		ns, ni, err := otrace.ValidateChromeJSON(buf.Bytes())
		if err != nil {
			return nil, err
		}
		if _, err := spansW.Write(buf.Bytes()); err != nil {
			return nil, err
		}
		res.Spans, res.Instants = ns, ni
		res.DroppedSpans = spans.DroppedSpans()
	}
	return res, nil
}

// FormatTrace renders a trace summary.
func FormatTrace(r *TraceResult) string {
	s := fmt.Sprintf("trace: %s — %d events captured (%d dropped), %d recomputes\n",
		r.Query, r.Events, r.Dropped, r.Recomputes)
	if r.Spans > 0 {
		s += fmt.Sprintf("  spans: %d recorded (%d dropped), %d instants — load the JSON into ui.perfetto.dev\n",
			r.Spans, r.DroppedSpans, r.Instants)
	}
	for _, kind := range []string{core.EvCommit, core.EvRangeFailure, core.EvFlip, core.EvRecompute, core.EvNoCommit} {
		if n := r.ByKind[kind]; n > 0 {
			s += fmt.Sprintf("  %-20s %d\n", kind, n)
		}
	}
	return s + r.Report
}
