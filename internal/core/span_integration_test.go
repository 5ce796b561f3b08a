package core

import (
	"bytes"
	"testing"

	"fluodb/internal/chaos"
	"fluodb/internal/otrace"
	"fluodb/internal/plan"
	"fluodb/internal/testutil"
)

// spanEnv runs a P=4 multi-key grouped query to completion with Profile
// on and returns the engine's span timeline.
func spanEnv(t *testing.T, opt Options) (*otrace.Tracer, *Engine) {
	t.Helper()
	cat := foldCatalog(20000, 71)
	q, err := plan.Compile(`SELECT a, b, SUM(x), AVG(x) FROM facts GROUP BY a, b`, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt.Profile = true
	eng, err := New(q, cat, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	sp := eng.Spans()
	sp.SetLabel("span integration")
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return sp, eng
}

// TestSpanHierarchyParallelQuery is the tentpole acceptance test: a
// P=4 multi-key query must produce a correctly nested
// query→batch→phase→task timeline whose Chrome export round-trips.
func TestSpanHierarchyParallelQuery(t *testing.T) {
	base := testutil.GoroutineBaseline()
	sp, eng := spanEnv(t, WithSeams(Options{
		Batches: 8, Trials: 50, Seed: 7, Parallelism: 4,
	}, Seams{PartRows: 64}))
	spans := sp.Spans()
	if err := otrace.ValidateNesting(spans); err != nil {
		t.Fatalf("nesting: %v", err)
	}
	count := map[string]int{}
	workerTasks := 0
	for _, s := range spans {
		count[s.Name]++
		if s.Name == "task" && s.Tid > 0 {
			workerTasks++
		}
		if s.End < s.Start {
			t.Fatalf("span %q (batch %d) left open", s.Name, s.Batch)
		}
	}
	if count["query"] != 1 {
		t.Fatalf("query spans = %d, want 1", count["query"])
	}
	if count["batch"] < 8 {
		t.Fatalf("batch spans = %d, want >= 8", count["batch"])
	}
	if count["feed"] < 8 || count["reclassify"] < 8 || count["snapshot"] < 8 {
		t.Fatalf("phase spans missing: %v", count)
	}
	if workerTasks == 0 {
		t.Fatal("no worker task spans recorded at P=4")
	}
	// No pool work outlives its batch barrier: every worker-track span is
	// a task under a controller feed span of the same batch, and lies
	// inside that parent's [start, end].
	byID := make(map[otrace.SpanID]otrace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Tid == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if s.Name != "task" || !ok || p.Name != "feed" || p.Tid != 0 || p.Batch != s.Batch {
			t.Fatalf("worker span %q (batch %d, track %d) has parent %q (batch %d, track %d), want a task under the controller feed of the same batch",
				s.Name, s.Batch, s.Tid, p.Name, p.Batch, p.Tid)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("worker span %q [%d,%d] escapes its %q parent [%d,%d] (batch %d)",
				s.Name, s.Start, s.End, p.Name, p.Start, p.End, s.Batch)
		}
	}
	if sp.DroppedSpans() != 0 {
		t.Fatalf("spans dropped: %d", sp.DroppedSpans())
	}

	var buf bytes.Buffer
	if err := eng.Events().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	ns, _, err := otrace.ValidateChromeJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("exported chrome trace invalid: %v", err)
	}
	if ns != len(spans) {
		t.Fatalf("export carried %d spans, recorded %d", ns, len(spans))
	}
	if rep := eng.Report(); rep == "" {
		t.Fatal("empty report")
	} else if !bytes.Contains([]byte(rep), []byte("timeline spans:")) {
		t.Fatalf("report missing timeline section:\n%s", rep)
	}
	eng.Close()
	testutil.VerifyNoLeaks(t, base)
}

// TestSpanInstantCorrelation: chaos-injected faults must appear as
// exported instant events carrying the ring's sequence numbers, on a
// worker's track.
func TestSpanInstantCorrelation(t *testing.T) {
	sp, eng := spanEnv(t, WithSeams(Options{
		Batches: 6, Trials: 20, Seed: 11, Parallelism: 4,
	}, Seams{PartRows: 64, Chaos: chaos.New(chaos.Config{Seed: 5, PanicProb: 0.4})}))
	ins := exportedInstants(t, eng.Events())
	if len(ins) == 0 {
		t.Fatal("no instant events exported")
	}
	havePanic := false
	seqSeen := map[uint64]bool{}
	for _, i := range ins {
		if i.Name == EvWorkerPanic || i.Name == EvFault {
			havePanic = havePanic || i.Tid > 0
		}
		if seqSeen[i.Args.Seq] {
			t.Fatalf("duplicate exported seq %d", i.Args.Seq)
		}
		seqSeen[i.Args.Seq] = true
	}
	if !havePanic {
		t.Fatal("fault/panic instants missing under chaos")
	}
	if err := otrace.ValidateNesting(sp.Spans()); err != nil {
		t.Fatalf("nesting under chaos: %v", err)
	}
	// Serial retries must appear as spans when panics were contained.
	retries := 0
	for _, s := range sp.Spans() {
		if s.Name == "serial-retry" {
			retries++
		}
	}
	if retries == 0 {
		t.Fatal("no serial-retry spans despite injected panics")
	}
}

// TestSpanCheckpointResume: checkpoint and resume edges land on the
// timeline, and the resume replay's batches nest under the resume span.
func TestSpanCheckpointResume(t *testing.T) {
	cat := foldCatalog(8000, 3)
	q, err := plan.Compile(`SELECT a, SUM(x) FROM facts GROUP BY a`, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Batches: 6, Trials: 20, Seed: 9, Parallelism: 1, Profile: true}
	eng, err := New(q, cat, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sp := eng.Spans()
	for i := 0; i < 3; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	eng2, err := Resume(q, cat, opt, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	sp2 := eng2.Spans()
	for !eng2.Done() {
		if _, err := eng2.Step(); err != nil {
			t.Fatal(err)
		}
	}

	names := func(tr *otrace.Tracer) map[string]int {
		m := map[string]int{}
		for _, s := range tr.Spans() {
			m[s.Name]++
		}
		return m
	}
	if n := names(sp); n["checkpoint"] != 1 {
		t.Fatalf("checkpoint spans = %d, want 1", n["checkpoint"])
	}
	n2 := names(sp2)
	if n2["resume"] != 1 {
		t.Fatalf("resume spans = %d, want 1", n2["resume"])
	}
	if err := otrace.ValidateNesting(sp2.Spans()); err != nil {
		t.Fatalf("resume nesting: %v", err)
	}
}
