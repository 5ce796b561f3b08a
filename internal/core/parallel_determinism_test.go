package core

import (
	"fmt"
	"reflect"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/chaos"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Parallel mini-batch folding must be a pure implementation detail: with
// the same seed, a parallel run merges to bit-identical snapshots as a
// serial run — group estimates, confidence intervals, RSDs, and group
// insertion order.
//
// The fixture makes floating-point equality exact rather than
// approximate: measures are integer-valued (so every fold is an exact
// float64 add and reassociation cannot round differently), the bootstrap
// subsample is unbounded (sqrtP = 1, so no m-out-of-n rescaling), and
// the first rows enumerate every group (so part 0 — merged first —
// fixes the same insertion order the serial run sees).

// determinismCatalog enumerates all 8×16 (a, b) groups in the first 128
// rows, then appends uniform rows with integer-valued measures.
func determinismCatalog(n int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("facts", types.NewSchema(
		"a", types.KindString,
		"b", types.KindInt,
		"x", types.KindFloat,
	))
	as := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	for i := 0; i < 8; i++ {
		for j := 0; j < 16; j++ {
			_ = t.Append(types.Row{
				types.NewString(as[i]),
				types.NewInt(int64(j)),
				types.NewFloat(float64(i + j)),
			})
		}
	}
	rng := bootstrap.NewRNG(seed)
	for i := 128; i < n; i++ {
		_ = t.Append(types.Row{
			types.NewString(as[rng.Intn(len(as))]),
			types.NewInt(int64(rng.Intn(16))),
			types.NewFloat(float64(rng.Intn(1000))),
		})
	}
	cat.Put(t)
	return cat
}

func runSnapshots(t *testing.T, cat *storage.Catalog, sql string, o Options) []*Snapshot {
	t.Helper()
	snaps, eng := runEngine(t, cat, sql, o)
	eng.Close()
	return snaps
}

// runEngine is runSnapshots that also returns the drained engine, for
// tests that inspect its state afterwards. It is closed at cleanup.
func runEngine(t *testing.T, cat *storage.Catalog, sql string, o Options) ([]*Snapshot, *Engine) {
	t.Helper()
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var snaps []*Snapshot
	for {
		snap, err := eng.Step()
		if err == ErrDone {
			return snaps, eng
		}
		if err != nil {
			t.Fatal(err)
		}
		checkCacheOrdinals(t, eng)
		snaps = append(snaps, snap)
	}
}

// checkCacheOrdinals asserts the uncertain-cache invariant the kernel's
// reclassification relies on: every block's cache is non-decreasing in
// fact ordinal, and each cached row's fact part is its ordinal's row.
func checkCacheOrdinals(t *testing.T, eng *Engine) {
	t.Helper()
	for _, r := range eng.runners {
		tbl, _ := eng.cat.Get(r.b.Input.Fact)
		rows := tbl.Rows()
		for i := range r.uncertain {
			u := &r.uncertain[i]
			if i > 0 && u.ord < r.uncertain[i-1].ord {
				t.Fatalf("block %d cache row %d: ordinal %d after %d", r.b.ID, i, u.ord, r.uncertain[i-1].ord)
			}
			fact := rows[u.ord]
			for c := range fact {
				if types.KeyString1(u.row[c]) != types.KeyString1(fact[c]) {
					t.Fatalf("block %d cache row %d: ordinal %d is row %v, cached %v", r.b.ID, i, u.ord, fact, u.row)
				}
			}
		}
	}
}

// compareSnapshots asserts two snapshot series are bit-identical row by
// row (group order included).
func compareSnapshots(t *testing.T, label string, serial, parallel []*Snapshot) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: snapshot count: serial %d, parallel %d", label, len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if len(s.Rows) != len(p.Rows) {
			t.Fatalf("%s: batch %d: row count: serial %d, parallel %d", label, i+1, len(s.Rows), len(p.Rows))
		}
		for r := range s.Rows {
			if !reflect.DeepEqual(s.Rows[r], p.Rows[r]) {
				t.Errorf("%s: batch %d row %d differs:\n serial:   %+v\n parallel: %+v",
					label, i+1, r, s.Rows[r], p.Rows[r])
			}
		}
	}
}

const determinismSQL = `SELECT a, b, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a, b`

func determinismOptions(seed uint64) Options {
	return Options{
		Batches: 3, Trials: 50, Seed: seed,
		BootstrapSampleCap: -1, Parallelism: 1,
		// Threshold low enough that P=8 engages on the 8192-row batches
		// (the worker clamp caps workers at rows/threshold).
		ParallelThreshold: 512,
	}
}

// TestParallelFoldBitIdentical sweeps the pooled runtime across
// P∈{1,2,4,8}, asserting every configuration reproduces the serial
// snapshots bit for bit. Weights are derived inside each worker's fold,
// so at P∈{2,4,8} this pins the fused kernel against the serial run on
// every batch.
func TestParallelFoldBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cat := determinismCatalog(3*8192, seed)
			serial := runSnapshots(t, cat, determinismSQL, determinismOptions(seed))
			for _, p := range []int{2, 4, 8} {
				o := determinismOptions(seed)
				o.Parallelism = p
				compareSnapshots(t, fmt.Sprintf("pool P=%d", p),
					serial, runSnapshots(t, cat, determinismSQL, o))
			}
		})
	}
}

// TestRecomputeReplayBitIdentical forces a variation-range failure
// mid-run and asserts the replayed parallel result is byte-identical to
// a serial run — the guard for stage reuse across replayUpTo, with the
// fused kernel folding every pooled batch at P=4 (meaningful
// under -race too: no pool work is in flight when replay resets the
// runners).
//
// The fixture streams an ascending integer measure, so the scalar
// subquery's prefix AVG drifts upward monotonically: a range committed
// against an early prefix must fail as later batches arrive. Integer
// measures keep every float operation exact (see the package comment on
// determinismCatalog), so bit-identity is a meaningful assertion.
//
// A third leg injects worker panics at P=4. Fault sites are keyed to
// (table, batch, worker), so the replay re-encounters the faults of the
// prefix it re-folds and must contain each one again; the pinned
// (seed, probability) pair fires at least one panic inside a replay.
//
// Every leg runs twice: with a grouped root, and with a scalar root whose
// certainly-in selection folds as one run of the fused kernel under the

// driftCatalog is a table whose x grows with row order, so every
// estimate of AVG(x) drifts upward batch after batch.
func driftCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	tb := storage.NewTable("drift", types.NewSchema(
		"a", types.KindString,
		"x", types.KindFloat,
	))
	as := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	n := 8 * 2048
	for i := 0; i < n; i++ {
		_ = tb.Append(types.Row{
			types.NewString(as[i%len(as)]),
			types.NewFloat(float64(i)),
		})
	}
	cat.Put(tb)
	return cat
}

// driftOptions run over driftCatalog with ranges tight enough that the
// drifting estimates escape them.
func driftOptions(parallelism int) Options {
	return Options{
		Batches: 8, Trials: 40, Seed: 11,
		BootstrapSampleCap: -1,
		EpsilonSigma:       0.25, // tight ranges: the drifting AVG must escape
		Parallelism:        parallelism,
		ParallelThreshold:  256,
	}
}

// The keyed tri-state shapes over driftCatalog: a per-group correlated
// threshold and a membership whose groups cross the HAVING bound.
const (
	driftCorrelatedSQL = `SELECT a, COUNT(x), SUM(x) FROM drift d
			WHERE x < (SELECT 0.6 * AVG(x) FROM drift i WHERE i.a = d.a) GROUP BY a`
	driftMembershipSQL = `SELECT a, COUNT(x), SUM(x) FROM drift
			WHERE a IN (SELECT a FROM drift GROUP BY a HAVING AVG(x) > 5000) GROUP BY a`
)

// full bootstrap.
func TestRecomputeReplayBitIdentical(t *testing.T) {
	cat := driftCatalog()
	opts := driftOptions
	for _, tc := range []struct{ name, sql string }{
		{"grouped", `SELECT a, COUNT(x), SUM(x) FROM drift
			WHERE x < (SELECT 0.6 * AVG(x) FROM drift) GROUP BY a`},
		{"scalar", `SELECT COUNT(x), SUM(x), AVG(x) FROM drift
			WHERE x < (SELECT 0.6 * AVG(x) FROM drift)`},
		// The keyed tri-state shapes: replay re-classifies new and cached
		// rows through the kernel's keyed slots, against bindings the
		// reset rebuilt.
		{"correlated", driftCorrelatedSQL},
		{"in-set", driftMembershipSQL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recomputes := func(t *testing.T, o Options) ([]*Snapshot, int, []Event) {
				q, err := plan.Compile(tc.sql, cat)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := New(q, cat, o)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				if v := eng.runners[len(eng.runners)-1].colPl.verdict(); v != "columnar:fused" {
					t.Fatalf("root verdict %q, want columnar:fused", v)
				}
				var snaps []*Snapshot
				for {
					snap, err := eng.Step()
					if err == ErrDone {
						// Every shape classifies new and cached rows by kernel.
						r, reclassified := eng.runners[len(eng.runners)-1], int64(0)
						for _, st := range runnerStages(eng, r) {
							reclassified += st.cs.reclassified
						}
						if r.classifier() != "tri:kernel" || reclassified == 0 {
							t.Fatalf("root classifier %q re-examined %d cached rows by kernel",
								r.classifier(), reclassified)
						}
						return snaps, eng.Metrics().Recomputes, eng.Events().Events()
					}
					if err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, snap)
				}
			}
			serial, sRec, _ := recomputes(t, opts(1))
			parallel, pRec, _ := recomputes(t, opts(4))
			if sRec == 0 {
				t.Fatal("fixture chosen to force a variation-range failure reported Recomputes = 0")
			}
			if sRec != pRec {
				t.Fatalf("recompute count: serial %d, parallel %d", sRec, pRec)
			}
			compareSnapshots(t, "recompute P=4", serial, parallel)

			o := opts(4)
			o.Chaos = chaos.New(chaos.Config{Seed: 5, PanicProb: 0.3})
			o.Profile = true
			faulty, fRec, events := recomputes(t, o)
			if o.Chaos.Counts()[chaos.KindPanic] == 0 {
				t.Fatal("panic chaos fired no panics")
			}
			if fRec != sRec {
				t.Fatalf("recompute count: serial %d, chaos P=4 %d", sRec, fRec)
			}
			// A panic traced after a recompute event, at a batch no later than
			// the one being recomputed, fired inside the replay.
			replayBatch, replayPanics := 0, 0
			for _, ev := range events {
				switch {
				case ev.Kind == EvRecompute:
					replayBatch = max(replayBatch, ev.Batch)
				case ev.Kind == EvFault && ev.Key == "panic" && ev.Batch <= replayBatch:
					replayPanics++
				}
			}
			if replayPanics == 0 {
				t.Fatal("no panic fired inside a recompute replay")
			}
			compareSnapshots(t, "recompute P=4 under panic chaos", serial, faulty)
		})
	}
}
