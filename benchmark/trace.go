package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the engine.
// parent is an index into the recorder's slice, -1 for a root; the spans of
// one op hang under its root span.
type span struct {
	name       string
	parent     int
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced pass runs the same code without the clock reads.
type recorder struct {
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 when none
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), open: -1} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: r.open, start: time.Since(r.epoch)})
	r.open = len(r.spans) - 1
	return r.open
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
	r.open = r.spans[id].parent
}

// selfTimes returns, per span, its duration minus the part covered by its
// direct children.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (open in
// ui.perfetto.dev); one track per op.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(r.spans)
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		track := i // a root's own index; a child comes after its parent
		if s.parent >= 0 {
			track = events[s.parent].Tid
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: track,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"span": i, "parent": s.parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
