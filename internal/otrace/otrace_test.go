package otrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"fluodb/internal/testutil"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if s := tr.Slab(0); s != nil {
		t.Fatalf("nil tracer returned non-nil slab")
	}
	var sl *Slab
	id := sl.Begin("x", 0, -1, -1)
	if id != 0 {
		t.Fatalf("nil slab Begin = %d, want 0", id)
	}
	sl.End(id)
	tr.SetLabel("q")
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans = %v", got)
	}
	if tr.DroppedSpans() != 0 {
		t.Fatalf("nil tracer reports drops")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, []Instant{{Name: "ev", Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil export not valid JSON: %v", err)
	}
}

func TestSpanHierarchyRecording(t *testing.T) {
	tr := NewTracer(64)
	tr.SetLabel("SELECT AVG(x)")
	ctl := tr.Slab(0)
	q := ctl.Begin("query", 0, -1, -1)
	b := ctl.Begin("batch", q, 0, -1)
	f := ctl.Begin("feed", b, 0, 2)
	w := tr.Slab(1)
	task := w.Begin("task", f, 0, 2)
	w.End(task)
	ctl.End(f)
	ctl.End(b)
	ctl.End(q)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if err := ValidateNesting(spans); err != nil {
		t.Fatalf("nesting: %v", err)
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["task"].Tid != 1 || byName["query"].Tid != 0 {
		t.Fatalf("track assignment wrong: %+v", byName)
	}
	if byName["feed"].Block != 2 {
		t.Fatalf("feed block = %d, want 2", byName["feed"].Block)
	}
	if byName["batch"].Parent != byName["query"].ID {
		t.Fatalf("batch parent mismatch")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %q left open", s.Name)
		}
		if s.Dur() < 0 {
			t.Fatalf("negative duration on %q", s.Name)
		}
	}
}

func TestSlabOverflowDropsNotCorrupts(t *testing.T) {
	tr := NewTracer(2)
	sl := tr.Slab(0)
	a := sl.Begin("a", 0, -1, -1)
	b := sl.Begin("b", a, -1, -1)
	c := sl.Begin("c", b, -1, -1) // full: dropped
	if c != 0 {
		t.Fatalf("overflow Begin = %d, want 0", c)
	}
	sl.End(c) // must be harmless
	sl.End(b)
	sl.End(a)
	if got := sl.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if got := tr.DroppedSpans(); got != 1 {
		t.Fatalf("DroppedSpans = %d, want 1", got)
	}
	if err := ValidateNesting(tr.Spans()); err != nil {
		t.Fatalf("nesting after overflow: %v", err)
	}
}

func TestConcurrentSlabsNoRace(t *testing.T) {
	base := testutil.GoroutineBaseline()
	tr := NewTracer(4096)
	ctl := tr.Slab(0)
	q := ctl.Begin("query", 0, -1, -1)
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		sl := tr.Slab(w) // create outside the goroutine, like ensurePool
		wg.Add(1)
		go func(sl *Slab) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := sl.Begin("task", q, i, 0)
				sl.End(id)
			}
		}(sl)
	}
	wg.Wait()
	ctl.End(q)
	spans := tr.Spans()
	if len(spans) != 1+4*500 {
		t.Fatalf("got %d spans, want %d", len(spans), 1+4*500)
	}
	testutil.VerifyNoLeaks(t, base)
}

func TestChromeTraceExportRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	tr.SetLabel("roundtrip")
	ctl := tr.Slab(0)
	q := ctl.Begin("query", 0, -1, -1)
	b := ctl.Begin("batch", q, 0, -1)
	f := ctl.Begin("feed", b, 0, 0)
	w := tr.Slab(2)
	task := w.Begin("task", f, 0, 0)
	time.Sleep(time.Millisecond)
	fault := Instant{Name: "fault-injected", Tid: 2, Seq: 7, Ts: tr.Now(), Note: "site=worker"}
	w.End(task)
	ctl.End(f)
	ctl.End(b)
	ctl.End(q)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, []Instant{fault}); err != nil {
		t.Fatal(err)
	}
	ns, ni, err := ValidateChromeJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if ns != 4 || ni != 1 {
		t.Fatalf("parsed %d spans / %d instants, want 4 / 1", ns, ni)
	}
	text := buf.String()
	for _, want := range []string{`"process_name"`, `"roundtrip"`, `"worker 1"`, `"controller"`, `"fault-injected"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("export missing %q:\n%s", want, text)
		}
	}
}

func TestValidateNestingCatchesEscape(t *testing.T) {
	spans := []Span{
		{ID: makeSpanID(0, 0), Name: "batch", Start: 100, End: 200},
		{ID: makeSpanID(0, 1), Parent: makeSpanID(0, 0), Name: "task", Start: 150, End: 300},
	}
	if err := ValidateNesting(spans); err == nil {
		t.Fatal("escaping child not detected")
	}
	spans[1].End = 180
	if err := ValidateNesting(spans); err != nil {
		t.Fatalf("contained child rejected: %v", err)
	}
	orphan := []Span{
		{ID: makeSpanID(1, 0), Parent: makeSpanID(9, 9), Name: "task", Start: 1, End: 2},
	}
	if err := ValidateNesting(orphan); err == nil {
		t.Fatal("missing parent not detected")
	}
	noBatch := []Span{
		{ID: makeSpanID(0, 0), Name: "query", Start: 0, End: 100},
		{ID: makeSpanID(1, 0), Parent: makeSpanID(0, 0), Name: "task", Start: 1, End: 2},
	}
	if err := ValidateNesting(noBatch); err == nil {
		t.Fatal("task without batch ancestor not detected")
	}
}

func TestOpenSpansClampInExport(t *testing.T) {
	tr := NewTracer(8)
	ctl := tr.Slab(0)
	q := ctl.Begin("query", 0, -1, -1)
	ctl.Begin("batch", q, 0, -1) // deliberately left open
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ValidateChromeJSON(buf.Bytes()); err != nil {
		t.Fatalf("open-span export invalid: %v", err)
	}
}
