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
func foldBenchEnv(tb testing.TB, multiKey, profile bool) (*Engine, *blockRunner, *tableStream, *triEnv, []types.Row) {
	cat := foldCatalog(20000, 71)
	sql := `SELECT a, SUM(x), AVG(x) FROM facts GROUP BY a`
	if multiKey {
		sql = `SELECT a, b, SUM(x), AVG(x) FROM facts GROUP BY a, b`
	}
	q, err := plan.Compile(sql, cat)
	if err != nil {
		tb.Fatal(err)
	}
	// Profile attaches the event ring and the span timeline, the
	// configuration the alloc regression must also hold under.
	opt := Options{Batches: 10, Trials: 100, Seed: 72, Parallelism: 1, Profile: profile}
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

// feedTuple folds one fact tuple (global row ord) into the runner's
// home stage — the per-tuple entry the micro-benchmarks and the alloc
// gate drive.
func (r *blockRunner) feedTuple(fact types.Row, weights []uint8, repW float64, ord int, te *triEnv) {
	r.te = te
	r.feedTupleTo(fact, weights, repW, ord, &r.stage)
	r.settle()
}

func benchFold(b *testing.B, multiKey, sampled bool) {
	eng, r, ts, te, rows := foldBenchEnv(b, multiKey, false)
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
		r.feedTuple(fact, weights, repW, ts.starts[1]+i%len(rows), te)
	}
}

func BenchmarkFoldSingleKey(b *testing.B)        { benchFold(b, false, false) }
func BenchmarkFoldSingleKeySampled(b *testing.B) { benchFold(b, false, true) }
func BenchmarkFoldMultiKey(b *testing.B)         { benchFold(b, true, false) }
func BenchmarkFoldMultiKeySampled(b *testing.B)  { benchFold(b, true, true) }

func TestFoldBenchEnvGroups(t *testing.T) {
	_, r, _, _, _ := foldBenchEnv(t, true, false)
	if got := len(r.tab.order); got != 8*16 {
		t.Fatalf("expected 128 groups after warmup, got %d", got)
	}
	fmt.Println("groups:", len(r.tab.order))
}

// TestFoldSteadyStateAllocs pins the steady-state fold path (existing
// groups, sampled and unsampled tuples) to zero allocations per tuple —
// without ("plain") and with Profile ("profiled": event ring and span
// timeline attached), and additionally with a span recorded around each
// fold on the engine's own worker slab ("spanned"): the fold loop reads
// no clock per tuple and spans are preallocated slab appends, so turning
// observability on must not cost allocations. Skipped under the race
// detector, whose instrumentation allocates.
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
		for _, cfg := range []struct {
			name             string
			profile, spanned bool
		}{
			{"plain", false, false},
			{"profiled", true, false},
			{"spanned", true, true},
		} {
			t.Run(tc.name+"/"+cfg.name, func(t *testing.T) {
				eng, r, ts, te, rows := foldBenchEnv(t, tc.multiKey, cfg.profile)
				// The spanned mode brackets every fold with a span on
				// worker 0's slab, created here so the measured loop
				// only appends (or counts a drop once the slab is full).
				var slab *otrace.Slab
				if cfg.spanned {
					slab = eng.workerSlab(0)
				}
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
					var id otrace.SpanID
					if cfg.spanned {
						id = slab.Begin("fold", 0, 0, 0)
					}
					r.feedTuple(fact, weights, repW, ts.starts[1]+i%len(rows), te)
					slab.End(id)
					i++
				})
				if allocs != 0 {
					t.Fatalf("steady-state fold allocates %.1f allocs/tuple, want 0", allocs)
				}
				if cfg.profile && eng.Spans() == nil {
					t.Fatal("Profile attached no span timeline")
				}
				if cfg.spanned && len(eng.Spans().Spans())+slab.Dropped() < 2000 {
					t.Fatal("spanned run recorded no fold spans")
				}
			})
		}
	}
}
