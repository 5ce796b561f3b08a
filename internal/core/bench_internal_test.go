package core

import (
	"testing"

	"fluodb/internal/plan"
	"fluodb/internal/types"
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fact := rows[i%len(rows)]
		var weights []uint8
		repW := 0.0
		if eng.sampled(ts, i%len(rows)) {
			weights = eng.weightsFor(ts, i%len(rows))
			repW = ts.invP
		}
		r.feedTuple(fact, weights, repW, ts.starts[1]+i%len(rows), te)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.snapshot(0)
	}
}

// snapshotBenchEngine runs sql over the 20k-row synthetic catalog for 10
// of 20 mini-batches: mid-run, where the uncertain set is large.
func snapshotBenchEngine(tb testing.TB, sql string, trials int, catSeed uint64) *Engine {
	cat := synthCatalog(20000, 50, catSeed)
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
// forgotten, as updateBinding leaves them.
func benchFirstSnapshot(b *testing.B, eng *Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range eng.bind.groups {
			g.reps = map[string][]types.Value{}
		}
		for _, s := range eng.bind.sets {
			s.reps = map[string][]bool{}
		}
		eng.runners[len(eng.runners)-1].invalidateEval()
		eng.snapshot(0)
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
// shape: a constant per emitted row (its point row and its cells), not
// anything that grows with the cached uncertain set times the trials —
// no overlay maps, cloned states, key strings or per-trial contexts.
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
		// Point row + cells per emitted row, the row list's amortized
		// growth, and a fixed handful for the snapshot itself.
		if limit := float64(64 + 3*rows); allocs > limit {
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
}

func BenchmarkWeightsFor(b *testing.B) {
	cat := synthCatalog(1000, 10, 67)
	q, _ := plan.Compile(`SELECT COUNT(*) FROM sessions`, cat)
	eng, _ := New(q, cat, Options{Batches: 2, Trials: 100, Seed: 68})
	ts := eng.tables["sessions"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.weightsFor(ts, i)
	}
}
