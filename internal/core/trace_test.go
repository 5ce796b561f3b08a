package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"fluodb/internal/otrace"
)

func TestTracerRingBound(t *testing.T) {
	tr := newTracer(8, otrace.NewTracer(0))
	for i := 0; i < 20; i++ {
		tr.Emit(Event{Kind: EvCommit, Block: i})
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	if tr.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", tr.Dropped())
	}
	// Oldest-first, most recent retained: seq 12..19.
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvCommit})
	tr.setBatch(3)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}

func TestTracerBatchStamp(t *testing.T) {
	tr := newTracer(16, otrace.NewTracer(0))
	tr.setBatch(1)
	tr.Emit(Event{Kind: EvCommit})
	tr.setBatch(2)
	tr.Emit(Event{Kind: EvRangeFailure})
	evs := tr.Events()
	if evs[0].Batch != 1 || evs[1].Batch != 2 {
		t.Fatalf("batch stamps %d, %d, want 1, 2", evs[0].Batch, evs[1].Batch)
	}
	if evs[1].Ms < evs[0].Ms {
		t.Fatal("timestamps must be non-decreasing")
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := newTracer(16, otrace.NewTracer(0))
	tr.setBatch(4)
	tr.Emit(Event{Kind: EvRangeFailure, Block: 1, Key: "k7", Point: 3.5, Lo: 1, Hi: 2, Boost: 2})
	tr.Emit(Event{Kind: EvFlip, Block: 1, Folded: 3, Dropped: 1, Kept: 5})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Kind != EvRangeFailure || lines[0].Key != "k7" || lines[0].Hi != 2 || lines[0].Batch != 4 {
		t.Fatalf("round-trip mismatch: %+v", lines[0])
	}
	if lines[1].Folded != 3 || lines[1].Kept != 5 {
		t.Fatalf("flip counts lost: %+v", lines[1])
	}
}

// TestEngineTraceEvents drives the recomputing nested workload and
// checks the engine narrates its decisions: range commits, a
// variation-range failure carrying the failing group key, uncertain
// flips, and the recompute trigger.
func TestEngineTraceEvents(t *testing.T) {
	_, tr := profiledQ17(t)
	counts := map[string]int{}
	var failure *Event
	for i, ev := range tr.Events() {
		counts[ev.Kind]++
		if ev.Kind == EvRangeFailure && failure == nil {
			failure = &tr.Events()[i]
		}
	}
	if counts[EvCommit] == 0 {
		t.Fatal("no commit events")
	}
	if counts[EvRangeFailure] == 0 {
		t.Fatal("no range-failure events on a workload that recomputes")
	}
	if counts[EvRecompute] == 0 {
		t.Fatal("no recompute events")
	}
	if counts[EvFlip] == 0 {
		t.Fatal("no uncertain-flip events")
	}
	if failure.Key == "" {
		t.Fatalf("range failure must carry the failing group key: %+v", *failure)
	}
	if failure.Lo == 0 && failure.Hi == 0 {
		t.Fatalf("range failure must carry the committed range: %+v", *failure)
	}
	if failure.Batch < 1 {
		t.Fatalf("events must be batch-stamped: %+v", *failure)
	}
}

func TestEventOmitsEmptyFields(t *testing.T) {
	b, err := json.Marshal(Event{Kind: EvRecompute, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, absent := range []string{"key", "lo", "hi", "folded", "note", "block"} {
		if strings.Contains(s, `"`+absent+`"`) {
			t.Fatalf("empty field %q serialized: %s", absent, s)
		}
	}
}

// TestTracerConcurrentEmit hammers one ring from many goroutines (run
// under -race in CI): every retained event must be intact — a seq in
// range, stamped, no torn writes — and the drop accounting must add up.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := newTracer(64, otrace.NewTracer(0))
	const (
		emitters = 8
		perG     = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{Kind: EvCommit, Block: g, Kept: i})
			}
		}(g)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d events, want 64", len(evs))
	}
	if got := tr.Dropped(); got != emitters*perG-64 {
		t.Fatalf("Dropped = %d, want %d", got, emitters*perG-64)
	}
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Seq >= emitters*perG {
			t.Fatalf("seq %d out of range", ev.Seq)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d retained", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Kind != EvCommit || ev.Block < 0 || ev.Block >= emitters {
			t.Fatalf("torn event: %+v", ev)
		}
	}
}

// chromeInstant is one instant ("i") entry of a Chrome trace export.
type chromeInstant struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	Ts    float64 `json:"ts"` // µs since the span epoch
	Tid   int     `json:"tid"`
	Args  struct {
		Seq  uint64 `json:"seq"`
		Note string `json:"note"`
	} `json:"args"`
}

// exportedInstants writes tr's Chrome trace and returns its instants in
// file order.
func exportedInstants(t *testing.T, tr *Tracer) []chromeInstant {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeInstant `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	var out []chromeInstant
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "i" {
			out = append(out, ev)
		}
	}
	return out
}

// sameStamp reports whether an exported instant carries the event's
// own timestamp (the export rounds nanoseconds through microseconds).
func sameStamp(ev Event, in chromeInstant) bool {
	return math.Round(ev.Ms*1e6) == math.Round(in.Ts*1e3)
}

// TestChromeInstantsFromRing: the Chrome export attaches exactly the
// ring's retained events — past wraparound too, so the ring's Dropped is
// the only drop figure — each once, with its seq, its own timestamp and
// today's track mapping (faults on the worker's track).
func TestChromeInstantsFromRing(t *testing.T) {
	tr := newTracer(4, otrace.NewTracer(0))
	for i := 0; i < 9; i++ {
		tr.Emit(Event{Kind: EvCommit, Key: "k"})
	}
	tr.Emit(Event{Kind: EvFault, Key: "panic", Note: "feed: injected", Worker: 2})
	evs := tr.Events()
	ins := exportedInstants(t, tr)
	if len(ins) != len(evs) || len(ins) != 4 || tr.Dropped() != 6 {
		t.Fatalf("%d instants, %d retained events, %d dropped; want 4, 4, 6", len(ins), len(evs), tr.Dropped())
	}
	for i, ev := range evs {
		in := ins[i]
		if in.Args.Seq != ev.Seq || in.Name != ev.Kind || !sameStamp(ev, in) {
			t.Fatalf("instant %+v does not carry event %+v", in, ev)
		}
	}
	if last := ins[3]; last.Tid != 3 || last.Args.Note != "feed: injected" {
		t.Fatalf("fault instant on track %d note %q, want worker 2's track (3)", last.Tid, last.Args.Note)
	}
	if first := ins[0]; first.Tid != 0 || first.Args.Note != "k" {
		t.Fatalf("commit instant on track %d note %q, want the controller and its key", first.Tid, first.Args.Note)
	}
}
