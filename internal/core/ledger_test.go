package core

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fluodb/internal/plan"
	"fluodb/internal/resource"
	"fluodb/internal/testutil"
)

// Tests for the resource ledger and the MaxMemoryBytes degradation
// ladder (ledger.go): charge-counter ground truth against an
// independent walk of the final table state, allocation-freedom of the
// per-batch collection, bit-identity of budget-degraded runs, and
// goroutine hygiene of the GC sampler.

// ledgerRun drains one engine and returns its snapshots plus the open
// engine (caller closes).
func ledgerRun(t *testing.T, sql string, o Options, seed uint64, rows int) ([]*Snapshot, *Engine) {
	t.Helper()
	cat := determinismCatalog(rows, seed)
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			eng.Close()
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	return snaps, eng
}

// TestLedgerGroundTruth cross-checks the incremental group-table charge
// counter against an independent walk of the final table: probe slots
// at 4 bytes each, per-entry header + key values, and the banked
// accumulator arrays at exact capacity × 8. Any seam that allocates
// without charging (or double-charges) breaks the equality.
func TestLedgerGroundTruth(t *testing.T) {
	o := Options{Batches: 4, Trials: 50, Seed: 911, Parallelism: 1}
	snaps, eng := ledgerRun(t, determinismSQL, o, 911, 4*2048)
	defer eng.Close()

	r := eng.runners[len(eng.runners)-1]
	tab := r.tab
	if !tab.banked {
		t.Fatal("CLT-only query should use the banked table")
	}
	if len(tab.entries) == 0 || len(tab.free) != 0 {
		t.Fatalf("unexpected table shape: %d entries, %d free", len(tab.entries), len(tab.free))
	}
	want := 4 * int64(len(tab.slots))
	for _, en := range tab.entries {
		want += entryHeaderBytes + int64(len(en.key))*rowValueBytes
		want += 8 * int64(len(en.mainW)+len(en.mainV)+len(en.bankW)+len(en.bankV))
		if en.clt != nil {
			want += int64(len(en.clt)) * cltAccBytes
		}
	}
	if tab.bytes != want {
		t.Fatalf("group-table charge %d, independent walk says %d", tab.bytes, want)
	}

	// The surfaced usage agrees with the ledger and with itself.
	u := eng.Resources()
	if u.GroupTableBytes < tab.bytes {
		t.Fatalf("Resources group-tables %d < runner charge %d", u.GroupTableBytes, tab.bytes)
	}
	sum := u.GroupTableBytes + u.UncertainBytes + u.ColScratchBytes +
		u.SegCacheBytes + u.CheckpointBytes
	if u.TotalBytes != sum {
		t.Fatalf("TotalBytes %d != pool sum %d", u.TotalBytes, sum)
	}
	if u.PeakBytes < u.TotalBytes {
		t.Fatalf("PeakBytes %d below TotalBytes %d", u.PeakBytes, u.TotalBytes)
	}
	if u.GroupTableBytes == 0 || u.ColScratchBytes == 0 {
		t.Fatalf("expected live pools, got %+v", u)
	}
	m := eng.Metrics()
	if m.MemBytes != u.TotalBytes || m.MemPeakBytes != u.PeakBytes {
		t.Fatalf("metrics mirror out of sync: %d/%d vs %d/%d",
			m.MemBytes, m.MemPeakBytes, u.TotalBytes, u.PeakBytes)
	}
	// Every committed batch stamped a usage with a consistent total.
	for i, s := range snaps {
		if s.Resources.TotalBytes <= 0 {
			t.Fatalf("batch %d: no resource observation: %+v", i+1, s.Resources)
		}
	}
}

// TestLedgerUncertainCharge: the uncertain-cache pool is exactly the
// cached entries (cap × sizeof). A cached row is its lineage header and
// fact ordinal, 32 B on 64-bit hosts: its weights are regenerated from
// the ordinal, never stored.
func TestLedgerUncertainCharge(t *testing.T) {
	if strconv.IntSize == 64 && uncertainRowBytes != 32 {
		t.Fatalf("uncertainRow is %d B, want 32", uncertainRowBytes)
	}
	o := Options{Batches: 4, Trials: 32, Seed: 331, Parallelism: 1}
	_, eng := ledgerRun(t, chaosSQL, o, 331, 4*2048)
	defer eng.Close()
	var want int64
	for _, r := range eng.runners {
		want += uncertainRowBytes * int64(cap(r.uncertain))
	}
	if want == 0 {
		t.Fatal("the query cached no uncertain tuples")
	}
	eng.collectResidency()
	if got := eng.ledger.Bytes(resource.UncertainCache); got != want {
		t.Fatalf("uncertain charge %d, cap walk says %d", got, want)
	}
}

// TestLedgerSegCacheOncePerTable: a fact table's columnar segments are
// one encoding however many blocks stream it, so the segment-cache pool
// of a two-block query over one table is that table's ColumnarBytes.
func TestLedgerSegCacheOncePerTable(t *testing.T) {
	o := Options{Batches: 4, Trials: 32, Seed: 331, Parallelism: 1}
	_, eng := ledgerRun(t, chaosSQL, o, 331, 4*2048)
	defer eng.Close()
	if len(eng.runners) != 2 || eng.runners[0].b.Input.Fact != eng.runners[1].b.Input.Fact {
		t.Fatal("the fixture is not two blocks over one table")
	}
	tbl, _ := eng.cat.Get(eng.runners[0].b.Input.Fact)
	want := tbl.ColumnarBytes()
	if want == 0 {
		t.Fatal("no columnar encoding is resident")
	}
	if got := eng.Resources().SegCacheBytes; got != want {
		t.Fatalf("segment-cache pool %d B, the table's encoding %d B", got, want)
	}
}

// TestLedgerWorkerStagesNotInUncertainPool: rung 2 can evict only the
// runners' caches, so the uncertain-cache pool holds exactly those at
// Parallelism 2; the worker stages' uncertain buffers, emptied at every
// merge with their capacity kept, are charged as scratch.
func TestLedgerWorkerStagesNotInUncertainPool(t *testing.T) {
	o := WithSeams(Options{Batches: 6, Trials: 32, Seed: 411, Parallelism: 2}, Seams{PartRows: 128})
	cat := determinismCatalog(6*2048, 331)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var staged, want int64
	for _, wc := range eng.pool.ctxs {
		for _, st := range wc.stages {
			if st != nil {
				staged += uncertainRowBytes * int64(cap(st.uncertain))
			}
		}
	}
	for _, r := range eng.runners {
		want += uncertainRowBytes * int64(cap(r.uncertain))
	}
	if staged == 0 || want == 0 {
		t.Fatalf("worker stages %d B, runner caches %d B: the fixture exercises nothing", staged, want)
	}
	eng.collectResidency()
	if got := eng.ledger.Bytes(resource.UncertainCache); got != want {
		t.Fatalf("uncertain pool %d B, runner caches %d B (worker stages %d B)", got, want, staged)
	}
}

// TestLedgerCollectAllocs pins the per-batch collection itself —
// residency walk, peak observe, GC read, usage stamp — to zero
// allocations, so the ledger can stay always-on.
func TestLedgerCollectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	o := Options{Batches: 4, Trials: 50, Seed: 911, Parallelism: 1}
	_, eng := ledgerRun(t, determinismSQL, o, 911, 4*2048)
	defer eng.Close()
	var snap Snapshot
	allocs := testing.AllocsPerRun(100, func() {
		eng.observeResources(&snap)
	})
	if allocs != 0 {
		t.Fatalf("resource observation allocates %.1f per batch, want 0", allocs)
	}
}

// TestBudgetDegradeBitIdentical is the acceptance gate: a 1-byte soft
// budget forces both degradation rungs from the first batch, and the
// run must stay bit-identical to the unbudgeted run — across seeds and
// worker counts. Rung 1 is a bit-identical fallback by construction and
// rung 2 has nothing to evict on an aggregate-only query, so only
// answer-preserving machinery may engage.
func TestBudgetDegradeBitIdentical(t *testing.T) {
	for _, seed := range []uint64{411, 1213} {
		for _, p := range []int{1, 2, 4, 8} {
			o := WithSeams(Options{
				Batches: 5, Trials: 32, Seed: seed, Parallelism: p,
			}, Seams{PartRows: 128})
			clean, cleanEng := ledgerRun(t, determinismSQL, o, seed, 5*2048)
			cleanEng.Close()

			ob := o
			ob.MaxMemoryBytes = 1
			ob.Profile = true
			got, eng := ledgerRun(t, determinismSQL, ob, seed, 5*2048)

			label := "budget-degrade"
			compareSnapshots(t, label, clean, got)
			if rung := eng.Resources().DegradeRung; rung != 2 {
				t.Fatalf("%s seed=%d P=%d: final rung %d, want 2", label, seed, p, rung)
			}
			if ev := eng.Metrics().UncertainEvictions; ev != 0 {
				t.Fatalf("%s: aggregate-only query evicted %d uncertain tuples", label, ev)
			}
			eng.Close()
			// Trajectory: every committed batch reports the full ladder
			// (1-byte budget engages everything on batch 1, then latches),
			// and the Degraded reason names each rung.
			for i, s := range got {
				if s.Resources.DegradeRung != 2 {
					t.Fatalf("%s: batch %d rung %d, want 2", label, i+1, s.Resources.DegradeRung)
				}
				if want := "budget:segcache+evict"; s.Degraded != want {
					t.Fatalf("%s: batch %d Degraded = %q, want %q", label, i+1, s.Degraded, want)
				}
			}
			// The ladder announced itself: one EvDegrade per rung, in order.
			var rungs []int
			for _, ev := range eng.Events().Events() {
				if ev.Kind == EvDegrade {
					rungs = append(rungs, ev.Kept)
				}
			}
			if len(rungs) != 2 || rungs[0] != 1 || rungs[1] != 2 {
				t.Fatalf("%s: EvDegrade rungs = %v, want [1 2]", label, rungs)
			}
		}
	}
}

// TestBudgetCheckpointResume: a budget-degraded query checkpointed
// mid-run resumes with its rungs re-engaged and completes bit-identical
// to the uninterrupted budgeted run (itself bit-identical to
// unbudgeted), with the memory peak surviving the round trip.
func TestBudgetCheckpointResume(t *testing.T) {
	const seed = 617
	o := WithSeams(Options{
		Batches: 6, Trials: 32, Seed: seed,
		Parallelism: 2, MaxMemoryBytes: 1,
	}, Seams{PartRows: 128})
	full, fullEng := ledgerRun(t, determinismSQL, o, seed, 6*2048)
	peak := fullEng.Resources().PeakBytes
	fullEng.Close()

	cat := determinismCatalog(6*2048, seed)
	q, err := plan.Compile(determinismSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]*Snapshot, 0, o.Batches)
	for i := 0; i < 3; i++ {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	ckpt, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()

	res, err := Resume(q, cat, o, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.degradeRung != 2 {
		t.Fatalf("resumed engine rung %d, want 2 re-engaged", res.degradeRung)
	}
	for !res.Done() {
		s, err := res.Step()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	compareSnapshots(t, "budget-resume", full, snaps)
	if got := res.Resources().PeakBytes; got < peak/2 {
		t.Fatalf("peak did not survive resume: %d vs original %d", got, peak)
	}
	if res.Metrics().DegradeRung != 2 {
		t.Fatal("resumed metrics lost the degradation rung")
	}
}

// TestBudgetEvictionReason: under an uncertain-heavy workload a tiny
// budget reaches rung 2 with real evictions, which Degraded names. The
// fixture is fixed-seed, so an unreached eviction path is a failure.
func TestBudgetEvictionReason(t *testing.T) {
	o := WithSeams(Options{
		Batches: 6, Trials: 32, Seed: 411,
		Parallelism: 2, MaxMemoryBytes: 1,
	}, Seams{PartRows: 128})
	snaps, eng := ledgerRun(t, chaosSQL, o, 331, 6*2048)
	defer eng.Close()
	if eng.Metrics().UncertainEvictions == 0 {
		t.Fatal("workload cached no uncertain tuples at enforcement points; eviction path not reached")
	}
	last := snaps[len(snaps)-1]
	if last.Degraded != "budget:segcache+evict" {
		t.Fatalf("Degraded = %q, want the budget ladder named", last.Degraded)
	}
	if len(last.Rows) == 0 {
		t.Fatal("degraded run produced no rows")
	}
}

// TestBudgetRung2PartialEviction: at a budget between the non-cache
// residency and the total, rung 2 evicts the fewest oldest cached rows
// whose charge covers the overage. The uncertain pool falls by exactly
// those rows' bytes, the total lands at or under the budget, and the
// rest of the cache stays.
func TestBudgetRung2PartialEviction(t *testing.T) {
	o := Options{Batches: 6, Trials: 32, Seed: 411, Parallelism: 1}
	cat := determinismCatalog(6*2048, 331)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cached := 0
	for _, r := range eng.runners {
		cached += len(r.uncertain)
	}
	var snap Snapshot
	eng.observeResources(&snap)
	before := eng.Resources()
	if cached < 8 || before.UncertainBytes == 0 {
		t.Fatalf("fixture cached %d rows (%d B); need a cache to evict from", cached, before.UncertainBytes)
	}
	// Rung 1 frees the segment cache; the budget leaves half the uncertain
	// pool over it.
	budget := before.TotalBytes - before.SegCacheBytes - before.UncertainBytes/2
	eng.opt.MaxMemoryBytes = budget
	eng.enforceMemoryBudget()
	eng.observeResources(&snap)
	after := eng.Resources()

	if eng.degradeRung != 2 {
		t.Fatalf("rung %d, want 2", eng.degradeRung)
	}
	evicted := eng.Metrics().UncertainEvictions
	if evicted == 0 || evicted >= int64(cached) {
		t.Fatalf("evicted %d of %d cached rows, want part of the cache", evicted, cached)
	}
	if drop := before.UncertainBytes - after.UncertainBytes; drop != evicted*uncertainRowBytes {
		t.Fatalf("uncertain pool fell %d B for %d evicted rows, want %d B",
			drop, evicted, evicted*uncertainRowBytes)
	}
	if after.TotalBytes > budget {
		t.Fatalf("total %d B still over the %d B budget after rung 2", after.TotalBytes, budget)
	}
	if after.TotalBytes+uncertainRowBytes <= budget {
		t.Fatalf("total %d B: rung 2 kept evicting under the %d B budget", after.TotalBytes, budget)
	}
}

// TestLedgerGCCPU: a GC forced between batches shows as GC CPU on the
// next batch's usage, and Metrics.GCCPUNS is the sum over batches.
func TestLedgerGCCPU(t *testing.T) {
	o := Options{Batches: 4, Trials: 16, Seed: 911, Parallelism: 1}
	cat := determinismCatalog(4*1024, 911)
	q, err := plan.Compile(determinismSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sum int64
	for b := 0; !eng.Done(); b++ {
		if b > 0 {
			runtime.GC()
		}
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if b > 0 && s.Resources.GCCPUNS <= 0 {
			t.Fatalf("batch %d: forced GC not in its usage: %+v", b+1, s.Resources)
		}
		sum += s.Resources.GCCPUNS
	}
	if m := eng.Metrics(); m.GCCPUNS != sum {
		t.Fatalf("Metrics.GCCPUNS %d, per-batch sum %d", m.GCCPUNS, sum)
	}
	if !strings.Contains(eng.Report(), "gc cpu: ") {
		t.Fatalf("Report has no GC CPU line:\n%s", eng.Report())
	}
}

// TestSamplerNoGoroutineLeak: the engine's GC sampler is synchronous —
// running and closing budgeted engines must return the process to its
// goroutine baseline (nothing left polling runtime/metrics).
func TestSamplerNoGoroutineLeak(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	for i := 0; i < 3; i++ {
		o := WithSeams(Options{
			Batches: 3, Trials: 16, Seed: uint64(100 + i),
			Parallelism: 4, MaxMemoryBytes: 1,
		}, Seams{PartRows: 128})
		_, eng := ledgerRun(t, determinismSQL, o, uint64(100+i), 3*1024)
		eng.Close()
	}
	testutil.VerifyNoLeaks(t, baseline)
}
