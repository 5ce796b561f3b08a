package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fluodb/internal/otrace"
)

// TestTraceOneEventStore: a traced Q18 run emitting more than 8192
// events writes every one of them to both files — the JSONL export and
// the Chrome trace's instants read the one event ring — and the
// summary reports the ring's drop count and the instants written.
func TestTraceOneEventStore(t *testing.T) {
	cfg := Config{Rows: 36000, Batches: 10, Trials: 20}
	var jsonl, spans bytes.Buffer
	res, err := TraceRun(cfg, "Q18", &jsonl, &spans)
	if err != nil {
		t.Fatal(err)
	}
	_, instants, err := otrace.ValidateChromeJSON(spans.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(jsonl.Bytes(), []byte("\n"))
	if res.Events <= 8192 {
		t.Fatalf("fixture emitted %d events; it must exceed 8192", res.Events)
	}
	if instants != res.Events || lines != res.Events || res.Instants != res.Events {
		t.Fatalf("events %d, JSONL lines %d, Chrome instants %d (reported %d): the exports disagree",
			res.Events, lines, instants, res.Instants)
	}
	if res.Dropped != 0 {
		t.Fatalf("ring dropped %d events", res.Dropped)
	}
	want := fmt.Sprintf("%d events captured (0 dropped)", res.Events)
	if out := FormatTrace(res); !strings.Contains(out, want) ||
		!strings.Contains(out, fmt.Sprintf(", %d instants", res.Events)) {
		t.Fatalf("summary does not report the events and instants written:\n%s", out)
	}
}
