package core

import (
	"fmt"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/otrace"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Benchmarks for the steady-state mini-batch fold loop: group lookup,
// aggregate updates and (for sampled tuples) per-trial bootstrap folds.

// foldCatalog builds a fact table with two low-cardinality key columns
// (a: 8 values, b: 16 values) and one measure, so every benchmark tuple
// hits an existing group (the steady state).
func foldCatalog(n int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("facts", types.NewSchema(
		"a", types.KindString,
		"b", types.KindInt,
		"x", types.KindFloat,
	))
	as := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	rng := bootstrap.NewRNG(seed)
	for i := 0; i < n; i++ {
		_ = t.Append(types.Row{
			types.NewString(as[rng.Intn(len(as))]),
			types.NewInt(int64(rng.Intn(16))),
			types.NewFloat(rng.Float64() * 100),
		})
	}
	cat.Put(t)
	return cat
}

// foldBenchEnv builds an engine over the fold catalog, feeds the first
// mini-batch (so all groups exist) and returns the pieces needed to
// drive the fold loop by hand.
func foldBenchEnv(tb testing.TB, multiKey, profile, spanned bool) (*Engine, *blockRunner, *tableStream, *triEnv, []types.Row) {
	cat := foldCatalog(20000, 71)
	sql := `SELECT a, SUM(x), AVG(x) FROM facts GROUP BY a`
	if multiKey {
		sql = `SELECT a, b, SUM(x), AVG(x) FROM facts GROUP BY a, b`
	}
	q, err := plan.Compile(sql, cat)
	if err != nil {
		tb.Fatal(err)
	}
	opt := Options{Batches: 10, Trials: 100, Seed: 72, Parallelism: 1}
	if profile {
		// Full instrumentation on: fine phase timers plus an attached
		// tracer, the configuration the alloc regression must also hold
		// under.
		opt.Profile = true
		opt.Tracer = NewTracer(0)
	}
	if spanned {
		// Span timelines on top: spans are recorded at batch/phase/task
		// granularity, never per tuple, so the fold loop must stay
		// alloc-free with a SpanTracer attached too.
		opt.Spans = otrace.NewTracer(0)
	}
	eng, err := New(q, cat, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		tb.Fatal(err)
	}
	r := eng.runners[len(eng.runners)-1]
	ts := eng.tables["facts"]
	return eng, r, ts, eng.triEnv(), ts.batches[1]
}

// feedTuple folds one fact tuple into the runner's home stage — the
// per-tuple entry the micro-benchmarks and the alloc gate drive.
func (r *blockRunner) feedTuple(fact types.Row, weights []uint8, repW float64, te *triEnv) {
	r.te = te
	r.feedTupleTo(fact, weights, repW, &r.stage)
	r.settle()
}

func benchFold(b *testing.B, multiKey, sampled bool) {
	eng, r, ts, te, rows := foldBenchEnv(b, multiKey, false, false)
	var weights []uint8
	var wbuf []uint8
	repW := 0.0
	if sampled {
		repW = ts.invP
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fact := rows[i%len(rows)]
		if sampled {
			wbuf = eng.weightsInto(wbuf, ts, i%len(rows))
			weights = wbuf
		}
		r.feedTuple(fact, weights, repW, te)
	}
}

func BenchmarkFoldSingleKey(b *testing.B)        { benchFold(b, false, false) }
func BenchmarkFoldSingleKeySampled(b *testing.B) { benchFold(b, false, true) }
func BenchmarkFoldMultiKey(b *testing.B)         { benchFold(b, true, false) }
func BenchmarkFoldMultiKeySampled(b *testing.B)  { benchFold(b, true, true) }

func TestFoldBenchEnvGroups(t *testing.T) {
	_, r, _, _, _ := foldBenchEnv(t, true, false, false)
	if got := len(r.tab.order); got != 8*16 {
		t.Fatalf("expected 128 groups after warmup, got %d", got)
	}
	fmt.Println("groups:", len(r.tab.order))
}

// TestFoldSteadyStateAllocs pins the steady-state fold path (existing
// groups, sampled and unsampled tuples) to zero allocations per tuple —
// with instrumentation off ("plain"), with the phase profiler and
// tracer enabled ("profiled"), and additionally with span timelines
// attached ("spanned"): phase timers are monotonic clock reads into
// pre-allocated accumulators and spans are batch-granular slab appends,
// so turning observability on must not cost allocations. Skipped under
// the race detector, whose instrumentation allocates.
func TestFoldSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name     string
		multiKey bool
		sampled  bool
	}{
		{"single-key", false, false},
		{"single-key/sampled", false, true},
		{"multi-key", true, false},
		{"multi-key/sampled", true, true},
	} {
		for _, mode := range []struct {
			name             string
			profile, spanned bool
		}{
			{"plain", false, false},
			{"profiled", true, false},
			{"spanned", true, true},
		} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				eng, r, ts, te, rows := foldBenchEnv(t, tc.multiKey, mode.profile, mode.spanned)
				var wbuf []uint8
				repW := 0.0
				if tc.sampled {
					repW = ts.invP
				}
				i := 0
				allocs := testing.AllocsPerRun(2000, func() {
					fact := rows[i%len(rows)]
					var weights []uint8
					if tc.sampled {
						wbuf = eng.weightsInto(wbuf, ts, i%len(rows))
						weights = wbuf
					}
					r.feedTuple(fact, weights, repW, te)
					i++
				})
				if allocs != 0 {
					t.Fatalf("steady-state fold allocates %.1f allocs/tuple, want 0", allocs)
				}
				if mode.profile && r.acc.ns[phaseFold] == 0 {
					t.Fatal("profiled run recorded no fold time")
				}
			})
		}
	}
}
