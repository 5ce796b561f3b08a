package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fluodb/internal/chaos"
	"fluodb/internal/plan"
)

// The chaos SQL exercises every containment surface at once: a scalar
// subquery parameter keeps a live uncertain cache (reclassification +
// bindings), grouped SUM/AVG/COUNT keeps the tables banked, and the
// WHERE predicate keeps classification meaningful.
const chaosSQL = `SELECT a, COUNT(x), SUM(x), AVG(x) FROM facts
	WHERE x < (SELECT 0.8 * AVG(x) FROM facts) GROUP BY a`

func chaosOptions(inj *chaos.Injector) Options {
	return WithSeams(Options{Batches: 6, Trials: 32, Seed: 411, Parallelism: 4},
		Seams{PartRows: 128, Chaos: inj})
}

// TestChaosPanicContainment: every injected worker panic is contained
// and redone serially, and the run stays bit-identical to a fault-free
// run of the same seed — the core tentpole guarantee.
func TestChaosPanicContainment(t *testing.T) {
	cat := determinismCatalog(6*2048, 311)
	clean := runSnapshots(t, cat, chaosSQL, chaosOptions(nil))
	inj := chaos.New(chaos.Config{Seed: 7, PanicProb: 0.3})
	faulty := runSnapshots(t, cat, chaosSQL, chaosOptions(inj))
	if inj.Counts()[chaos.KindPanic] == 0 {
		t.Fatal("injector never fired a panic; test exercised nothing")
	}
	compareSnapshots(t, "panic-chaos", clean, faulty)
}

// TestChaosAllFaultKinds layers panics, stragglers, stage corruption
// and segment-cache drops in one run and still demands bit-identity.
func TestChaosAllFaultKinds(t *testing.T) {
	cat := determinismCatalog(6*2048, 313)
	clean := runSnapshots(t, cat, chaosSQL, chaosOptions(nil))
	inj := chaos.New(chaos.Config{
		Seed: 99, PanicProb: 0.15, StragglerProb: 0.2,
		CorruptProb: 0.15, SegSealDropProb: 0.3,
	})
	faulty := runSnapshots(t, cat, chaosSQL, chaosOptions(inj))
	if inj.Fired() == 0 {
		t.Fatal("no faults fired")
	}
	compareSnapshots(t, "mixed-chaos", clean, faulty)
}

// TestChaosSegSealDrop injects columnar segment-cache drops on the
// incremental seal seam: the sealed segments are released mid-query,
// the plan revalidation re-encodes them (recompiling the kernels
// against the fresh encoding), and the run stays bit-identical to a
// fault-free run with the columnar path still engaged at the end.
func TestChaosSegSealDrop(t *testing.T) {
	cat := columnarCatalog(6*2048, 319)
	sql := `SELECT a, COUNT(x), SUM(x), AVG(x) FROM facts
		WHERE x < (SELECT 0.8 * AVG(x) FROM facts) GROUP BY a`
	o := WithSeams(Options{Batches: 6, Trials: 32, Seed: 411, Parallelism: 2},
		Seams{PartRows: 128})
	clean := runSnapshots(t, cat, sql, o)

	inj := chaos.New(chaos.Config{Seed: 5, SegSealDropProb: 0.5})
	of := WithSeams(o, Seams{PartRows: 128, Chaos: inj})
	of.Profile = true
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, of)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var faulty []*Snapshot
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		faulty = append(faulty, s)
	}
	if inj.Counts()[chaos.KindSegSeal] == 0 {
		t.Fatal("injector never dropped a segment cache; test exercised nothing")
	}
	compareSnapshots(t, "segseal-chaos", clean, faulty)
	r := eng.runners[len(eng.runners)-1]
	if !r.colPl.ok || r.colPl.ct == nil {
		t.Fatal("columnar plan did not re-engage after a segment-cache drop")
	}
	segFaults, colPlans := 0, 0
	for _, ev := range eng.Events().Events() {
		if ev.Kind == EvFault && ev.Key == "segseal" {
			segFaults++
		}
		if ev.Kind == EvColPlan && ev.Block == r.b.ID && ev.Note == "columnar,tri:kernel" {
			colPlans++
		}
	}
	if colPlans != 1 {
		t.Fatalf("EvColPlan(columnar,tri:kernel) events for root = %d, want 1", colPlans)
	}
	if segFaults == 0 {
		t.Fatal("segseal drops fired but no EvFault(segseal) events traced")
	}
}

// TestPoolSubmitAfterStop pins the satellite fix: submission to a
// stopped pool returns the typed sentinel instead of panicking on a
// closed channel.
func TestPoolSubmitAfterStop(t *testing.T) {
	p := newWorkerPool(2)
	var wg sync.WaitGroup
	if err := p.submit(0, &wg, func(*workerCtx) {}); err != nil {
		t.Fatalf("submit before stop: %v", err)
	}
	wg.Wait()
	p.stop()
	p.stop() // idempotent
	err := p.submit(0, &wg, func(*workerCtx) {})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrKindPoolStopped {
		t.Fatalf("submit after stop: got %v, want ErrKindPoolStopped", err)
	}
}

// TestWorkerPanicReleasesBarrier checks containment mechanics directly:
// a panicking part must still release the scatter barrier and reach its
// redo with the panic value, worker and stack as the cause (a worker
// that died instead would deadlock here).
func TestWorkerPanicReleasesBarrier(t *testing.T) {
	p := newWorkerPool(2)
	defer p.stop()
	var cause *workerPanic
	_, err := p.scatter(2, func(_ *workerCtx, i int) error {
		if i == 0 {
			panic("boom")
		}
		return nil
	}, func(i, _ int, c error) error {
		if i != 0 || cause != nil {
			t.Errorf("unexpected redo of part %d (cause %v)", i, c)
		}
		cause, _ = c.(*workerPanic)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cause == nil || cause.worker != 0 || cause.val != "boom" {
		t.Fatalf("panic record = %+v", cause)
	}
	if len(cause.stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	// The pool must stay serviceable for the next barrier.
	ran := false
	if _, err := p.scatter(1, func(*workerCtx, int) error {
		ran = true
		return nil
	}, func(i, _ int, c error) error {
		t.Errorf("clean part %d redone: %v", i, c)
		return nil
	}); err != nil || !ran {
		t.Fatalf("pool dead after contained panic (ran=%v, err=%v)", ran, err)
	}
}

// TestScatterLadder pins the one containment ladder directly: clean
// parts are left alone, a part that errs, panics or was never submitted
// is redone on the caller's goroutine with its cause, a panicking redo
// is contained and retried, and an exhausted ladder reports its part.
func TestScatterLadder(t *testing.T) {
	p := newWorkerPool(3)
	defer p.stop()
	boom := errors.New("boom")
	run := func(_ *workerCtx, i int) error {
		switch i {
		case 1:
			return boom
		case 2:
			panic("part 2")
		}
		return nil
	}
	redone := map[int]int{}
	part, err := p.scatter(3, run, func(i, attempt int, cause error) error {
		redone[i]++
		if _, panicked := cause.(*workerPanic); panicked != (i == 2) || (i == 1 && cause != boom) {
			t.Errorf("part %d redone with cause %v", i, cause)
		}
		if i == 2 && attempt == 1 {
			panic("redo panics once")
		}
		return nil
	})
	if part != -1 || err != nil {
		t.Fatalf("scatter = (%d, %v), want (-1, nil)", part, err)
	}
	if redone[0] != 0 || redone[1] != 1 || redone[2] != 2 {
		t.Fatalf("redo counts = %v, want part 1 once and part 2 twice", redone)
	}
	// Exhaustion: part 1 keeps failing; part 2's ladder never starts.
	calls := 0
	part, err = p.scatter(3, run, func(i, _ int, _ error) error {
		calls++
		return boom
	})
	if part != 1 || err != boom || calls != ladderAttempts {
		t.Fatalf("exhausted scatter = (%d, %v) after %d redos, want (1, boom) after %d",
			part, err, calls, ladderAttempts)
	}
	// A stopped pool runs nothing: every part is redone inline.
	p.stop()
	calls = 0
	part, err = p.scatter(3, run, func(_, _ int, cause error) error {
		calls++
		if !errors.Is(cause, ErrKindPoolStopped) {
			t.Errorf("cause = %v, want pool-stopped", cause)
		}
		return nil
	})
	if part != -1 || err != nil || calls != 3 {
		t.Fatalf("stopped-pool scatter = (%d, %v) after %d redos, want (-1, nil) after 3", part, err, calls)
	}
}

// TestOptionsValidate pins the satellite: explicitly negative or
// impossible option values are rejected with a typed error, while zero
// sentinels still resolve to defaults.
func TestOptionsValidate(t *testing.T) {
	cat := determinismCatalog(1024, 1)
	q, err := plan.Compile(`SELECT SUM(x) FROM facts`, cat)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Parallelism: -2},
		{Batches: -1},
		{Trials: -5},
		{Confidence: 1.5},
		{Confidence: -0.5},
		{EpsilonSigma: -1},
		{MinGroupSupport: -3},
		WithSeams(Options{}, Seams{PartRows: -1}),
	}
	for _, o := range bad {
		if _, err := New(q, cat, o); err == nil {
			t.Fatalf("Options %+v accepted, want invalid-options error", o)
		} else {
			var qe *QueryError
			if !errors.As(err, &qe) || qe.Kind != ErrKindInvalidOptions {
				t.Fatalf("Options %+v: got %v, want ErrKindInvalidOptions", o, err)
			}
		}
	}
	// Zero values remain "use defaults".
	eng, err := New(q, cat, Options{})
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	eng.Close()
}

// TestDeadlineReturnsBoundedAnswer: a cancelled context stops the
// prefix at a batch boundary and hands back the last committed snapshot
// as a bounded-time answer; a fresh context resumes the same engine and
// the completed run is bit-identical to an uninterrupted one.
func TestDeadlineReturnsBoundedAnswer(t *testing.T) {
	cat := determinismCatalog(6*2048, 317)
	clean := runSnapshots(t, cat, chaosSQL, chaosOptions(nil))

	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, chaosOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var snaps []*Snapshot
	for i := 0; i < 2; i++ {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bounded, err := eng.StepContext(ctx)
	if !IsInterrupted(err) {
		t.Fatalf("cancelled StepContext: got %v, want interrupted QueryError", err)
	}
	if bounded == nil || !bounded.Interrupted || bounded.InterruptReason == "" {
		t.Fatalf("bounded snapshot = %+v, want Interrupted with reason", bounded)
	}
	// The bounded answer is the last committed snapshot (same rows, CIs
	// intact).
	compareSnapshots(t, "bounded-answer", []*Snapshot{snaps[1]}, []*Snapshot{bounded})
	// The engine is not poisoned: resume with a live context.
	for !eng.Done() {
		s, err := eng.StepContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	compareSnapshots(t, "post-interrupt-resume", clean, snaps)

	// RunContext converts interruption into (snapshot, nil).
	eng2, err := New(q, cat, chaosOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, err := eng2.Step(); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	last, err := eng2.RunContext(ctx2, nil)
	if err != nil {
		t.Fatalf("RunContext under cancel: %v", err)
	}
	if last == nil || !last.Interrupted {
		t.Fatalf("RunContext bounded answer = %+v", last)
	}
}

// TestUncertainEviction pins the uncertain cache's one bound, rung 2 of
// the MaxMemoryBytes ladder: a 1-byte budget leaves an overage larger
// than the whole cache, so every batch ends with the cache shed;
// evictions are counted and surfaced as Degraded, and the engine still
// completes with a plausible answer. The fixture is fixed-seed and
// caches uncertain rows, so an unreached eviction path is a failure.
func TestUncertainEviction(t *testing.T) {
	cat := determinismCatalog(6*2048, 331)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, WithSeams(Options{
		Batches: 6, Trials: 32, Seed: 411,
		Parallelism: 2, MaxMemoryBytes: 1,
	}, Seams{PartRows: 128}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var last *Snapshot
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.UncertainRows(); got != 0 {
			t.Fatalf("uncertain cache %d survived rung 2 of a 1-byte budget after batch %d", got, s.Batch)
		}
		last = s
	}
	m := eng.Metrics()
	if m.UncertainEvictions == 0 {
		t.Fatal("workload cached no uncertain rows; eviction path not reached")
	}
	if last.Degraded != "budget:segcache+evict" {
		t.Fatalf("Degraded = %q despite evictions, want the budget ladder named", last.Degraded)
	}
	if len(last.Rows) == 0 {
		t.Fatal("degraded run produced no rows")
	}
}

// TestUncertainEvictionTraced re-runs the eviction scenario with a
// tracer and checks the EvEvict events carry fold/drop counts.
func TestUncertainEvictionTraced(t *testing.T) {
	cat := determinismCatalog(6*2048, 331)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, Options{
		Batches: 6, Trials: 32, Seed: 411,
		Parallelism: 1, MaxMemoryBytes: 1, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Metrics().UncertainEvictions == 0 {
		t.Fatal("no evictions under this fixed-seed workload; eviction path not reached")
	}
	evicts := 0
	for _, ev := range eng.Events().Events() {
		if ev.Kind == EvEvict {
			evicts++
			if ev.Folded+ev.Dropped == 0 {
				t.Fatalf("EvEvict with zero resolved rows: %+v", ev)
			}
		}
	}
	if evicts == 0 {
		t.Fatal("evictions counted but no EvEvict events traced")
	}
}

// TestChaosTraceEvents checks injected faults surface as EvFault /
// EvWorkerPanic / EvSerialRetry events.
func TestChaosTraceEvents(t *testing.T) {
	cat := determinismCatalog(6*2048, 311)
	o := chaosOptions(chaos.New(chaos.Config{Seed: 7, PanicProb: 0.3}))
	o.Profile = true
	_, eng := runEngine(t, cat, chaosSQL, o)
	var faults, contained, retries int
	for _, ev := range eng.Events().Events() {
		switch ev.Kind {
		case EvFault:
			faults++
		case EvWorkerPanic:
			contained++
		case EvSerialRetry:
			retries++
		}
	}
	if faults == 0 || contained == 0 || retries == 0 {
		t.Fatalf("trace incomplete: %d faults, %d contained panics, %d serial retries",
			faults, contained, retries)
	}
}
