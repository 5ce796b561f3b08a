package core

import (
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
	sum := u.GroupTableBytes + u.WeightArenaBytes + u.UncertainBytes +
		u.ColScratchBytes + u.SegCacheBytes + u.CheckpointBytes
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
// cached headers (cap × sizeof), and the weight-arena pool is live when
// tuples are cached. A cached row's header stays 56 B on 64-bit hosts:
// the fact ordinal took the replica weight's slot.
func TestLedgerUncertainCharge(t *testing.T) {
	if strconv.IntSize == 64 && uncertainRowBytes != 56 {
		t.Fatalf("uncertainRow is %d B, want 56", uncertainRowBytes)
	}
	o := Options{Batches: 4, Trials: 32, Seed: 331, Parallelism: 1}
	_, eng := ledgerRun(t, chaosSQL, o, 331, 4*2048)
	defer eng.Close()
	var want int64
	for _, r := range eng.runners {
		want += uncertainRowBytes * int64(cap(r.uncertain))
	}
	eng.collectResidency()
	if got := eng.ledger.Bytes(resource.UncertainCache); got != want {
		t.Fatalf("uncertain charge %d, cap walk says %d", got, want)
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
			o := Options{
				Batches: 5, Trials: 32, Seed: seed,
				Parallelism: p, ParallelThreshold: 128,
			}
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
			if ev := eng.Metrics().BudgetEvictions; ev != 0 {
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
	o := Options{
		Batches: 6, Trials: 32, Seed: seed,
		Parallelism: 2, ParallelThreshold: 128,
		MaxMemoryBytes: 1,
	}
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
// budget reaches rung 2 with real evictions, splitting the metrics by
// reason and naming both causes in Degraded when the row cap also
// fires.
func TestBudgetEvictionReason(t *testing.T) {
	o := Options{
		Batches: 6, Trials: 32, Seed: 411,
		Parallelism: 2, ParallelThreshold: 128,
		MaxMemoryBytes: 1,
	}
	snaps, eng := ledgerRun(t, chaosSQL, o, 331, 6*2048)
	defer eng.Close()
	m := eng.Metrics()
	if m.BudgetEvictions == 0 {
		t.Skip("workload cached no uncertain tuples at enforcement points")
	}
	if m.UncertainEvictions < m.BudgetEvictions {
		t.Fatalf("eviction split inconsistent: total %d < budget %d",
			m.UncertainEvictions, m.BudgetEvictions)
	}
	last := snaps[len(snaps)-1]
	if !strings.Contains(last.Degraded, "budget:segcache+evict") {
		t.Fatalf("Degraded = %q, want budget ladder named", last.Degraded)
	}
	if last.Resources.BudgetEvictions != m.BudgetEvictions {
		t.Fatalf("usage evictions %d != metrics %d",
			last.Resources.BudgetEvictions, m.BudgetEvictions)
	}
	if len(last.Rows) == 0 {
		t.Fatal("degraded run produced no rows")
	}
}

// TestSamplerNoGoroutineLeak: the engine's GC sampler is synchronous —
// running and closing budgeted engines must return the process to its
// goroutine baseline (nothing left polling runtime/metrics).
func TestSamplerNoGoroutineLeak(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	for i := 0; i < 3; i++ {
		o := Options{
			Batches: 3, Trials: 16, Seed: uint64(100 + i),
			Parallelism: 4, ParallelThreshold: 128,
			MaxMemoryBytes: 1,
		}
		_, eng := ledgerRun(t, determinismSQL, o, uint64(100+i), 3*1024)
		eng.Close()
	}
	testutil.VerifyNoLeaks(t, baseline)
}
