package otrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format
// (Perfetto/about:tracing loadable). Durations and timestamps are in
// microseconds; "X" is a complete span, "i" an instant, "M" metadata.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace serializes the tracer's spans, with the given point
// events attached, as a Chrome trace-event JSON object: pid 1 is the
// query, tids map to the controller (0) and pool workers (1..P). Open
// spans are clamped to the current clock so a mid-flight export still
// nests. A nil tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer, instants []Instant) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	now := t.Now()
	spans := t.Spans()
	label := t.Label()
	if label == "" {
		label = "online query"
	}

	evs := make([]chromeEvent, 0, len(spans)+len(instants)+8)
	evs = append(evs, chromeEvent{
		Name: "process_name", Phase: "M", Pid: 1,
		Args: map[string]any{"name": label},
	})
	tids := map[int]bool{}
	for _, s := range spans {
		tids[int(s.Tid)] = true
	}
	for _, i := range instants {
		tids[int(i.Tid)] = true
	}
	order := make([]int, 0, len(tids))
	for tid := range tids {
		order = append(order, tid)
	}
	sort.Ints(order)
	for _, tid := range order {
		name := "controller"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", tid-1)
		}
		evs = append(evs, chromeEvent{
			Name: "thread_name", Phase: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range spans {
		end := s.End
		if end < s.Start {
			end = now
		}
		args := map[string]any{"id": uint64(s.ID)}
		if s.Parent != 0 {
			args["parent"] = uint64(s.Parent)
		}
		if s.Batch >= 0 {
			args["batch"] = s.Batch
		}
		if s.Block >= 0 {
			args["block"] = s.Block
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Phase: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(end-s.Start) / 1e3,
			Pid: 1, Tid: int(s.Tid), Args: args,
		})
	}
	for _, i := range instants {
		args := map[string]any{"seq": i.Seq}
		if i.Batch >= 0 {
			args["batch"] = i.Batch
		}
		if i.Note != "" {
			args["note"] = i.Note
		}
		evs = append(evs, chromeEvent{
			Name: i.Name, Phase: "i", Scope: "t",
			Ts: float64(i.Ts) / 1e3, Pid: 1, Tid: int(i.Tid), Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs})
}

// ValidateNesting checks the structural invariants of a span set:
// every non-zero parent exists, every child interval lies within its
// parent's, and every worker "task" span has a "batch" ancestor.
// Open spans (End < Start) are clamped to the maximum observed edge
// before checking, matching the exporters.
func ValidateNesting(spans []Span) error {
	byID := make(map[SpanID]Span, len(spans))
	var maxEdge int64
	for _, s := range spans {
		if s.ID == 0 {
			return fmt.Errorf("span %q has zero ID", s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("duplicate span ID %d", s.ID)
		}
		byID[s.ID] = s
		if s.Start > maxEdge {
			maxEdge = s.Start
		}
		if s.End > maxEdge {
			maxEdge = s.End
		}
	}
	end := func(s Span) int64 {
		if s.End < s.Start {
			return maxEdge
		}
		return s.End
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %q (id %d) references missing parent %d",
				s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || end(s) > end(p) {
			return fmt.Errorf("span %q [%d,%d] escapes parent %q [%d,%d]",
				s.Name, s.Start, end(s), p.Name, p.Start, end(p))
		}
	}
	for _, s := range spans {
		if s.Name != "task" {
			continue
		}
		found := false
		for cur := s; cur.Parent != 0; {
			p, ok := byID[cur.Parent]
			if !ok {
				break
			}
			if p.Name == "batch" {
				found = true
				break
			}
			cur = p
		}
		if !found {
			return fmt.Errorf("task span id %d (tid %d, batch %d) has no batch ancestor",
				s.ID, s.Tid, s.Batch)
		}
	}
	return nil
}

// ValidateChromeJSON parses Chrome trace JSON previously produced by
// WriteChromeTrace and re-checks span nesting from the serialized
// args — the smoke-test entry point proving the artifact itself (not
// just the in-memory spans) carries a well-formed hierarchy.
func ValidateChromeJSON(data []byte) (nSpans, nInstants int, err error) {
	var tr struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Ts    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Tid   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return 0, 0, fmt.Errorf("chrome trace: %w", err)
	}
	var spans []Span
	for _, ev := range tr.TraceEvents {
		switch ev.Phase {
		case "X":
			s := Span{
				Name:  ev.Name,
				Tid:   int32(ev.Tid),
				Batch: -1, Block: -1,
				Start: int64(ev.Ts * 1e3),
				End:   int64((ev.Ts + ev.Dur) * 1e3),
			}
			if v, ok := ev.Args["id"].(float64); ok {
				s.ID = SpanID(v)
			}
			if v, ok := ev.Args["parent"].(float64); ok {
				s.Parent = SpanID(v)
			}
			if v, ok := ev.Args["batch"].(float64); ok {
				s.Batch = int32(v)
			}
			spans = append(spans, s)
		case "i":
			nInstants++
		}
	}
	// Containment is checked with a 1µs tolerance: the export rounds
	// edges to microseconds, which can nudge a child edge past its
	// parent by up to one quantum.
	const tol = 1000 // ns
	byID := make(map[SpanID]Span, len(spans))
	for _, s := range spans {
		if s.ID == 0 {
			return 0, 0, fmt.Errorf("chrome trace: span %q missing args.id", s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return 0, 0, fmt.Errorf("chrome trace: duplicate span id %d", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return 0, 0, fmt.Errorf("chrome trace: span %q (id %d) references missing parent %d",
				s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start-tol || s.End > p.End+tol {
			return 0, 0, fmt.Errorf("chrome trace: span %q [%d,%d] escapes parent %q [%d,%d]",
				s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, s := range spans {
		if s.Name != "task" {
			continue
		}
		found := false
		for cur := s; cur.Parent != 0; {
			p, ok := byID[cur.Parent]
			if !ok {
				break
			}
			if p.Name == "batch" {
				found = true
				break
			}
			cur = p
		}
		if !found {
			return 0, 0, fmt.Errorf("chrome trace: task span id %d has no batch ancestor", s.ID)
		}
	}
	return len(spans), nInstants, nil
}
