package core

import (
	"testing"

	"fluodb/internal/plan"
	"fluodb/internal/testutil"
)

// pooledBatchEnv builds a warmed parallel engine over the fold catalog:
// one Step creates the workers and every group, so repeated batch feeds
// exercise the steady state.
func pooledBatchEnv(tb testing.TB) (*Engine, *blockRunner, *tableStream, *triEnv) {
	cat := foldCatalog(3*8192, 71)
	q, err := plan.Compile(`SELECT a, b, SUM(x), AVG(x) FROM facts GROUP BY a, b`, cat)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(q, cat, WithSeams(Options{
		Batches: 3, Trials: 100, Seed: 72, Parallelism: 4,
	}, Seams{PartRows: 512}))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		tb.Fatal(err)
	}
	r := eng.runners[len(eng.runners)-1]
	return eng, r, eng.tables["facts"], eng.triEnv()
}

// TestPooledFeedBatchAllocs pins the parallel batch feed through the
// engine's pool to amortized ~zero allocations per tuple: after warmup,
// a batch costs only the dispatch (task closures, part ranges — a
// handful of allocations amortized over thousands of rows) — no fresh
// tables, goroutines, joiner clones, columnar scratch or uncertain
// buffers, because every worker folds into persistent stages.
func TestPooledFeedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	t.Run("pool", func(t *testing.T) {
		eng, r, ts, te := pooledBatchEnv(t)
		defer eng.Close()
		rows := ts.batches[1]
		feed := func() {
			if err := r.feedBatchParallel(rows, ts.starts[1], te); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the stages (the first batch at this size builds worker
		// tables, joiner clones and classification environments).
		feed()
		allocs := testing.AllocsPerRun(20, feed)
		perRow := allocs / float64(len(rows))
		if perRow > 0.01 {
			t.Fatalf("batch feed allocates %.1f allocs/batch (%.4f/tuple) over %d rows, want ≤0.01/tuple",
				allocs, perRow, len(rows))
		}
	})
}

// BenchmarkFoldBatchPooled measures a full batch feed through the
// pool, reusing warmed stages.
func BenchmarkFoldBatchPooled(b *testing.B) {
	eng, r, ts, te := pooledBatchEnv(b)
	defer eng.Close()
	rows := ts.batches[1]
	r.feedBatchParallel(rows, ts.starts[1], te)
	b.ReportAllocs()
	b.SetBytes(int64(len(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.feedBatchParallel(rows, ts.starts[1], te)
	}
}

// TestPoolLifecycleNoLeaks opens and closes many pooled engines and
// requires the worker goroutines to drain back to the baseline — the
// reusable leak check shared with the dashboard-disconnect and otrace
// tests (internal/testutil).
func TestPoolLifecycleNoLeaks(t *testing.T) {
	base := testutil.GoroutineBaseline()
	for i := 0; i < 8; i++ {
		eng, _, _, _ := pooledBatchEnv(t)
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
	testutil.VerifyNoLeaks(t, base)
}

// TestEngineCloseIdempotent checks the pool lifecycle: Close is
// idempotent, and a closed engine degrades to serial feeding instead of
// panicking on its stopped pool.
func TestEngineCloseIdempotent(t *testing.T) {
	eng, r, ts, te := pooledBatchEnv(t)
	eng.Close()
	eng.Close()
	// The pooled path must fall back to serial on a closed engine.
	r.feedBatchParallel(ts.batches[1], ts.starts[1], te)
	if eng.pool != nil {
		t.Fatal("closed engine rebuilt its worker pool")
	}
}
