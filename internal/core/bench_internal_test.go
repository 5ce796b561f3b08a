package core

import (
	"testing"

	"fluodb/internal/plan"
)

// Component micro-benchmarks for the hot paths of one G-OLA mini-batch.

func BenchmarkFeedTupleSBI(b *testing.B) {
	cat := synthCatalog(20000, 50, 61)
	q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, cat)
	eng, err := New(q, cat, Options{Batches: 10, Trials: 100, Seed: 62})
	if err != nil {
		b.Fatal(err)
	}
	// One warm-up batch so ranges exist and classification is exercised.
	if _, err := eng.Step(); err != nil {
		b.Fatal(err)
	}
	r := eng.runners[len(eng.runners)-1]
	ts := eng.tables["sessions"]
	rows := ts.batches[1]
	te := eng.triEnv()
	wbuf := make([]float64, eng.opt.Trials)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ord := ts.starts[1] + i%len(rows)
		r.feedTuple(rows[i%len(rows)], eng.weights(wbuf, ts, ord, eng.opt.Trials), ord, te)
	}
}

func BenchmarkClassifyTuple(b *testing.B) {
	cat := synthCatalog(20000, 50, 63)
	q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, cat)
	eng, _ := New(q, cat, Options{Batches: 10, Trials: 50, Seed: 64})
	if _, err := eng.Step(); err != nil {
		b.Fatal(err)
	}
	r := eng.runners[len(eng.runners)-1]
	te := eng.triEnv()
	row := eng.tables["sessions"].batches[1][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		te.evalTri(r.uncertainWhere, row)
	}
}

func BenchmarkSnapshotGlobalAgg(b *testing.B) {
	cat := synthCatalog(20000, 50, 65)
	q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, cat)
	eng, _ := New(q, cat, Options{Batches: 10, Trials: 100, Seed: 66})
	if _, err := eng.Step(); err != nil {
		b.Fatal(err)
	}
	root := eng.runners[len(eng.runners)-1]
	if len(root.uncertain) == 0 {
		b.Fatal("no cached uncertain rows")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.snapshot(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(root.uncertain)), "ns/cached-row")
}

// snapshotBenchEngine runs sql over the 20k-row synthetic catalog for 10
// of 20 mini-batches: mid-run, where the uncertain set is large. The
// lineitem fact table streams pre-shuffled (Shuffled, the paper's §2
// pre-processing and the end-to-end benchmark's), so its cached rows lie
// scattered over the heap as they do there, not in allocation order.
func snapshotBenchEngine(tb testing.TB, sql string, trials int, catSeed uint64) *Engine {
	cat := synthCatalog(20000, 50, catSeed)
	li, _ := cat.Get("lineitem")
	cat.Put(li.Shuffled(int64(catSeed)))
	q, err := plan.Compile(sql, cat)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 20, Trials: trials, Seed: 70, Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for eng.Batch() < 10 {
		if _, err := eng.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

// benchFirstSnapshot times the snapshot a mini-batch pays for: before
// each one the root's bucket index is dropped and the lazily materialized
// replica vectors of every correlated and membership binding are
// forgotten, as updateBinding leaves them. It also reports the time per
// cached uncertain row of the root (ns/cached-row), the unit of
// BenchmarkReclassify*.
func benchFirstSnapshot(b *testing.B, eng *Engine) {
	root := eng.runners[len(eng.runners)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range eng.bind.groups {
			g.reps.next(g.reps.trials)
		}
		for _, s := range eng.bind.sets {
			s.reps.next(s.reps.trials)
		}
		root.invalidateEval()
		eng.snapshot(0)
	}
	if n := len(root.uncertain); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cached-row")
	}
}

const (
	membershipSQL = `SELECT orderkey, SUM(quantity) AS total_qty FROM lineitem
		WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 110)
		GROUP BY orderkey`
	correlatedSQL = `SELECT SUM(extendedprice) / 7.0 AS avg_yearly FROM lineitem l
		WHERE quantity < (SELECT 0.5 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`
)

// BenchmarkSnapshotMembership: the Q18 shape — IN-membership keeps most
// rows uncertain over thousands of groups.
func BenchmarkSnapshotMembership(b *testing.B) {
	benchFirstSnapshot(b, snapshotBenchEngine(b, membershipSQL, 100, 91))
}

// BenchmarkSnapshotCorrelated: the Q17 shape — a per-part correlated
// threshold over a global aggregate.
func BenchmarkSnapshotCorrelated(b *testing.B) {
	benchFirstSnapshot(b, snapshotBenchEngine(b, correlatedSQL, 100, 92))
}

// TestSnapshotAllocs gates what a snapshot may allocate on the Q18
// shape: a fixed handful (the snapshot, its cell slab and row list, the
// per-column scratch), nothing per emitted row — every row's cells are
// cut from the slab — and nothing that grows with the cached uncertain
// set times the trials: no overlay maps, cloned states, key strings or
// per-trial contexts.
func TestSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	perRow := func(trials int) float64 {
		eng := snapshotBenchEngine(t, membershipSQL, trials, 91)
		root := eng.runners[len(eng.runners)-1]
		// Warm-up: buckets sorted, probed keys' membership vectors
		// materialized, scratch sized.
		snap := eng.snapshot(0)
		rows, cached := len(snap.Rows), len(root.uncertain)
		if rows < 500 || cached < 2*rows {
			t.Fatalf("trials %d: %d rows over %d cached uncertain rows; the shape exercises nothing", trials, rows, cached)
		}
		allocs := testing.AllocsPerRun(5, func() { eng.snapshot(0) })
		// 10 measured on go1.24 at both trial counts, with two to spare.
		// 8 measured on go1.24 at both trial counts, with two to spare: one
		// allocation per 130 cached rows would show.
		if limit := 10.0; allocs > limit {
			t.Errorf("trials %d: %.0f allocs per snapshot of %d rows (%d cached rows), limit %.0f",
				trials, allocs, rows, cached, limit)
		}
		if allocs >= float64(cached) {
			t.Errorf("trials %d: %.0f allocs per snapshot reach the %d cached uncertain rows", trials, allocs, cached)
		}
		return allocs / float64(rows)
	}
	// Four times the trials must not move the per-row constant.
	if few, many := perRow(25), perRow(100); many > few+0.5 {
		t.Errorf("allocs per emitted row grow with the trial count: %.2f at 25 trials, %.2f at 100", few, many)
	}
	// The SBI shape: one global AVG group whose cached rows compare a
	// column with a scalar parameter, every row bootstrapped. Its sweep
	// reads each cached row by ordinal — the point pass by the tri kernel,
	// the trial lanes by the invariant compare — and folds it without
	// allocating, so a snapshot's count stays a small constant whatever
	// the cache holds.
	for _, trials := range []int{25, 100} {
		eng := sbiAllocsEngine(t, trials)
		root := eng.runners[len(eng.runners)-1]
		eng.snapshot(0)
		ev := root.eval()
		if _, ok := ev.where.(*tvCmpK); !ok || ev.env.ct == nil {
			t.Fatalf("trials %d: the sweep is %T, by ordinal %v; want the invariant compare by ordinal",
				trials, ev.where, ev.env.ct != nil)
		}
		cached := len(root.uncertain)
		if cached < 200 {
			t.Fatalf("trials %d: %d cached uncertain rows; the shape exercises nothing", trials, cached)
		}
		allocs := testing.AllocsPerRun(5, func() { eng.snapshot(0) })
		t.Logf("trials %d: %.0f allocs per snapshot over %d cached rows", trials, allocs, cached)
		// 8 measured on go1.24 at both trial counts, with two to spare: one
		// allocation per 130 cached rows would show.
		if limit := 10.0; allocs > limit {
			t.Errorf("trials %d: %.0f allocs per global snapshot over %d cached rows, limit %.0f",
				trials, allocs, cached, limit)
		}
	}
}

// sbiAllocsEngine runs the SBI query over the synthetic sessions table
// with every row bootstrapped (BootstrapSampleCap −1, as the end-to-end
// benchmark runs it) to mid-run, where the uncertain cache is large.
func sbiAllocsEngine(tb testing.TB, trials int) *Engine {
	cat := synthCatalog(80000, 50, 65)
	q, err := plan.Compile(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, cat)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 20, Trials: trials, Seed: 66, BootstrapSampleCap: -1, Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for eng.Batch() < 10 {
		if _, err := eng.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

func BenchmarkWeights(b *testing.B) {
	cat := synthCatalog(1000, 10, 67)
	q, _ := plan.Compile(`SELECT COUNT(*) FROM sessions`, cat)
	eng, _ := New(q, cat, Options{Batches: 2, Trials: 100, Seed: 68})
	ts := eng.tables["sessions"]
	wbuf := make([]float64, eng.opt.Trials)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.weights(wbuf, ts, i, eng.opt.Trials)
	}
}
