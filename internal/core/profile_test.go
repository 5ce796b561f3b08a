package core

import (
	"strings"
	"testing"
	"time"

	"fluodb/internal/otrace"
	"fluodb/internal/plan"
)

// q17SQL is the nested non-monotonic workload used by the profiler
// tests: the correlated AVG subquery's per-group estimates can move
// against the committed variation ranges, so the engine exercises
// uncertain caching, range maintenance and (with tight epsilon)
// recomputation.
const q17SQL = `SELECT SUM(extendedprice) / 7.0 FROM lineitem l
	WHERE quantity < (SELECT 0.5 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`

// profiledQ17 runs Q17 at a scale/epsilon empirically known to trigger
// at least one variation-range failure, with Profile on.
func profiledQ17(t *testing.T) (*Engine, *Tracer) {
	t.Helper()
	cat := synthCatalog(6000, 40, 5)
	q, err := plan.Compile(q17SQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism 1: the consistency checks below compare phase sums
	// against batch wall time, which only decomposes serially (parallel
	// workers sum goroutine time).
	eng, err := New(q, cat, Options{Batches: 10, Trials: 30, Seed: 7,
		EpsilonSigma: 0.3, Parallelism: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	return eng, eng.Events()
}

func TestMetricsPhaseConsistency(t *testing.T) {
	eng, _ := profiledQ17(t)
	m := eng.Metrics()

	if m.Batches != 10 {
		t.Fatalf("Batches = %d, want 10", m.Batches)
	}
	if m.Recomputes == 0 {
		t.Fatal("workload chosen to recompute reported Recomputes = 0")
	}
	if len(m.UncertainPerBatch) != m.Batches || len(m.BatchDurations) != m.Batches ||
		len(m.PhasePerBatch) != m.Batches {
		t.Fatalf("per-batch series lengths %d/%d/%d, want %d",
			len(m.UncertainPerBatch), len(m.BatchDurations), len(m.PhasePerBatch), m.Batches)
	}
	anyUncertain := false
	for _, u := range m.UncertainPerBatch {
		if u > 0 {
			anyUncertain = true
		}
	}
	if !anyUncertain {
		t.Fatal("nested workload never cached uncertain tuples")
	}

	// Every phase class must be populated: the sweep phases, the edge
	// phases, and the recompute the workload forces. Join and weights
	// are timed inside fold and always read zero.
	p := m.Phases
	if p.Fold == 0 || p.Classify == 0 {
		t.Fatalf("sweep phases missing: %+v", p)
	}
	if p.Join != 0 || p.Weights != 0 {
		t.Fatalf("join/weights must read zero: %+v", p)
	}
	if p.Ranges == 0 || p.Uncertain == 0 {
		t.Fatalf("coarse phases missing: %+v", p)
	}
	if p.Recompute == 0 || p.Snapshot == 0 {
		t.Fatalf("recompute/snapshot phases missing: %+v", p)
	}

	// Internal consistency: the cumulative breakdown equals the sum of
	// the per-batch breakdowns (same integers, merged), and with serial
	// folding each batch's disjoint in-batch work fits inside its wall
	// duration.
	var sum PhaseTimes
	for i, bp := range m.PhasePerBatch {
		sum.Join += bp.Join
		sum.Fold += bp.Fold
		sum.Weights += bp.Weights
		sum.Classify += bp.Classify
		sum.Uncertain += bp.Uncertain
		sum.Ranges += bp.Ranges
		sum.Recompute += bp.Recompute
		sum.Snapshot += bp.Snapshot
		if work := bp.BatchWork(); work > m.BatchDurations[i] {
			t.Fatalf("batch %d phase work %v exceeds batch duration %v", i+1, work, m.BatchDurations[i])
		}
		if bp.Recompute > m.BatchDurations[i] {
			t.Fatalf("batch %d recompute %v exceeds batch duration %v", i+1, bp.Recompute, m.BatchDurations[i])
		}
	}
	if sum != p {
		t.Fatalf("per-batch phases sum %+v != cumulative %+v", sum, p)
	}

	// Per-block profiles: one per lineage block, sub-block maintains
	// ranges, root never does, and block fold time sums (≤) into the
	// run total.
	if len(m.Blocks) != 2 {
		t.Fatalf("Blocks = %d entries, want 2", len(m.Blocks))
	}
	var blockFold time.Duration
	for _, bp := range m.Blocks {
		blockFold += bp.Phases.Fold
		if bp.Kind == "root" {
			if bp.Phases.Ranges != 0 {
				t.Fatalf("root block accrued range-maintenance time: %+v", bp.Phases)
			}
		} else if bp.Phases.Ranges == 0 {
			t.Fatalf("parameter block %d accrued no range-maintenance time", bp.ID)
		}
	}
	if blockFold != p.Fold {
		t.Fatalf("block fold times %v don't sum to run total %v", blockFold, p.Fold)
	}
}

// TestMetricsCoarsePhasesWithoutProfile: every measured phase is
// collected without Profile — the sweep phases as well as the edge
// phases — and join/weights read zero.
func TestMetricsCoarsePhasesWithoutProfile(t *testing.T) {
	cat := synthCatalog(3000, 20, 5)
	q, err := plan.Compile(q17SQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 5, Trials: 20, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	p := eng.Metrics().Phases
	if p.Fold == 0 || p.Classify == 0 || p.Uncertain == 0 || p.Ranges == 0 || p.Snapshot == 0 {
		t.Fatalf("measured phases must be collected without Profile: %+v", p)
	}
	if p.Join != 0 || p.Weights != 0 {
		t.Fatalf("join/weights must read zero: %+v", p)
	}
	if eng.Events() != nil || eng.Spans() != nil {
		t.Fatal("event ring or span timeline built without Profile")
	}
}

func TestSnapshotCarriesPhases(t *testing.T) {
	cat := synthCatalog(3000, 20, 5)
	q, err := plan.Compile(q17SQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 5, Trials: 20, Seed: 7, Parallelism: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Phases.Fold == 0 || snap.Phases.Snapshot == 0 {
		t.Fatalf("snapshot phases not populated: %+v", snap.Phases)
	}
	if len(snap.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(snap.Blocks))
	}
	for _, b := range snap.Blocks {
		if b.Phases.Fold == 0 {
			t.Fatalf("block %d carries no fold time: %+v", b.ID, b.Phases)
		}
	}
}

func TestReportBreakdown(t *testing.T) {
	eng, _ := profiledQ17(t)
	rep := eng.Report()
	for _, want := range []string{
		"G-OLA profile:", "recomputes", "phase totals:",
		"block 0 [", "block 1 [root]", "table=lineitem",
		"batch", "fold", "classify", "uncertain", "ranges", "recompute", "snapshot",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("Report() missing %q:\n%s", want, rep)
		}
	}
	// One per-batch trajectory line per processed batch.
	if got := strings.Count(rep, "\n"); got < 12 {
		t.Fatalf("Report() suspiciously short (%d lines):\n%s", got, rep)
	}
}

func TestPhaseTimesHelpers(t *testing.T) {
	p := PhaseTimes{Classify: time.Millisecond, Fold: 2 * time.Millisecond,
		Recompute: 4 * time.Millisecond, Snapshot: 8 * time.Millisecond}
	if got := p.BatchWork(); got != 3*time.Millisecond {
		t.Fatalf("BatchWork = %v, want 3ms (recompute/snapshot excluded)", got)
	}
	ms := p.Milliseconds()
	if ms["classify"] != 1 || ms["fold"] != 2 || ms["recompute"] != 4 || ms["snapshot"] != 8 {
		t.Fatalf("Milliseconds = %v", ms)
	}
	if _, ok := ms["uncertain"]; ok {
		t.Fatal("zero phases must be omitted from Milliseconds")
	}
	if len(PhaseNames) != numPhases || len(p.Durations()) != numPhases {
		t.Fatalf("PhaseNames length %d, Durations length %d, numPhases %d",
			len(PhaseNames), len(p.Durations()), numPhases)
	}
	if s := p.String(); !strings.Contains(s, "classify 1.0ms") || !strings.Contains(s, "fold 2.0ms") {
		t.Fatalf("String() = %q", s)
	}
}

// TestSpansMatchPhases: under Profile the reclassify, ranges, recompute
// and snapshot spans read the same clock edges as the phase profile, so
// each batch's summed span durations equal its PhasePerBatch entry to
// the nanosecond — on a run whose recompute replays earlier batches
// under the recompute span. Every ring event is exported as an instant
// at its own timestamp.
func TestSpansMatchPhases(t *testing.T) {
	eng, tr := profiledQ17(t)
	m := eng.Metrics()
	if m.Recomputes == 0 {
		t.Fatal("workload chosen to recompute reported Recomputes = 0")
	}
	spans := eng.Spans().Spans()
	byID := make(map[otrace.SpanID]otrace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// A replayed batch's spans are charged to the step whose recompute
	// span wraps them.
	step := func(s otrace.Span) int {
		b := int(s.Batch)
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Name == "recompute" {
				b = int(byID[p].Batch)
			}
		}
		return b
	}
	got := make([]PhaseTimes, m.Batches)
	for _, s := range spans {
		var d *time.Duration
		switch i := step(s) - 1; s.Name {
		case "reclassify":
			d = &got[i].Uncertain
		case "ranges":
			d = &got[i].Ranges
		case "recompute":
			d = &got[i].Recompute
		case "snapshot":
			d = &got[i].Snapshot
		default:
			continue
		}
		*d += s.Dur()
	}
	for i, want := range m.PhasePerBatch {
		g := got[i]
		if g.Uncertain != want.Uncertain || g.Ranges != want.Ranges ||
			g.Recompute != want.Recompute || g.Snapshot != want.Snapshot {
			t.Fatalf("batch %d: spans uncertain/ranges/recompute/snapshot %v/%v/%v/%v, phases %v/%v/%v/%v",
				i+1, g.Uncertain, g.Ranges, g.Recompute, g.Snapshot,
				want.Uncertain, want.Ranges, want.Recompute, want.Snapshot)
		}
	}

	if tr.Dropped() != 0 {
		t.Fatal("ring events dropped")
	}
	ins := map[uint64]chromeInstant{}
	for _, in := range exportedInstants(t, tr) {
		ins[in.Args.Seq] = in
	}
	evs := tr.Events()
	if len(evs) == 0 || len(ins) != len(evs) {
		t.Fatalf("%d ring events, %d instants", len(evs), len(ins))
	}
	for _, ev := range evs {
		if in, ok := ins[ev.Seq]; !ok || !sameStamp(ev, in) {
			t.Fatalf("event %d (%s) stamped %vms, its instant at %vµs (found %v)", ev.Seq, ev.Kind, ev.Ms, in.Ts, ok)
		}
	}
}
