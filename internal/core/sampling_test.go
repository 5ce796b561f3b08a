package core

import (
	"math"
	"testing"

	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/types"
)

// TestBootstrapSubsampleDeterministic verifies that the Bernoulli
// subsample and the per-(tuple, trial) Poisson weights are pure
// functions of (seed, table, row index) — the property failure-recovery
// replay depends on.
func TestBootstrapSubsampleDeterministic(t *testing.T) {
	cat := synthCatalog(5000, 50, 31)
	build := func() *Engine {
		q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
		eng, err := New(q, cat, Options{Batches: 5, Trials: 10, Seed: 9, BootstrapSampleCap: 500})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := build(), build()
	ts1 := a.tables["sessions"]
	ts2 := b.tables["sessions"]
	if ts1.sampleP != ts2.sampleP || ts1.sampleP != 0.1 {
		t.Fatalf("sampleP = %v / %v, want 0.1", ts1.sampleP, ts2.sampleP)
	}
	nSampled := 0
	for i := 0; i < 5000; i++ {
		s1, s2 := a.sampled(ts1, i), b.sampled(ts2, i)
		if s1 != s2 {
			t.Fatal("sampling not deterministic")
		}
		if s1 {
			nSampled++
			w1, w2 := a.weights(nil, ts1, i, 10), b.weights(nil, ts2, i, 10)
			if len(w1) != 10 || len(w2) != 10 {
				t.Fatalf("row %d: %d and %d weight lanes, want 10", i, len(w1), len(w2))
			}
			for j := range w1 {
				if w1[j] != w2[j] {
					t.Fatal("weights not deterministic")
				}
			}
		}
	}
	// Bernoulli(0.1) over 5000 rows: expect ~500 ± a generous margin.
	if nSampled < 380 || nSampled > 620 {
		t.Errorf("sampled = %d of 5000 at p=0.1", nSampled)
	}
}

// TestWeightsPrefix pins the contract the thinned trial sweep relies on:
// deriving a row's first n weight lanes (n < Trials, multiple of 4 or
// not) yields exactly the first n lanes of the full derivation, the
// lanes are the Poisson multiplicities scaled by 1/p, and a row outside
// the bootstrap subsample derives nil at any width.
func TestWeightsPrefix(t *testing.T) {
	cat := synthCatalog(4000, 50, 34)
	q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
	const trials = 30
	eng, err := New(q, cat, Options{Batches: 4, Trials: trials, Seed: 11, BootstrapSampleCap: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts := eng.tables["sessions"]
	invP := 1 / ts.sampleP
	var in, out int
	for gi := 0; gi < 400; gi++ {
		full := eng.weights(nil, ts, gi, trials)
		if !eng.sampled(ts, gi) {
			out++
			if full != nil {
				t.Fatalf("row %d outside the subsample derived %d lanes", gi, len(full))
			}
			for _, n := range []int{1, 7, 12} {
				if w := eng.weights(make([]float64, trials), ts, gi, n); w != nil {
					t.Fatalf("row %d outside the subsample derived %d of %d lanes", gi, len(w), n)
				}
			}
			continue
		}
		in++
		if len(full) != trials {
			t.Fatalf("row %d: %d lanes, want %d", gi, len(full), trials)
		}
		for j, x := range full {
			k := x / invP
			if k != math.Trunc(k) || k < 0 || k > 15 || float64(int(k))*invP != x {
				t.Fatalf("row %d lane %d: weight %v is not a multiplicity times 1/p = %v", gi, j, x, invP)
			}
		}
		// Scratch pre-filled with a sentinel: a prefix derivation must
		// leave every lane past n untouched.
		dst := make([]float64, trials)
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, trials - 1} {
			for j := range dst {
				dst[j] = -1
			}
			w := eng.weights(dst, ts, gi, n)
			if len(w) != n || &w[0] != &dst[0] {
				t.Fatalf("row %d n=%d: got %d lanes (in place %v)", gi, n, len(w), len(w) > 0 && &w[0] == &dst[0])
			}
			for j := 0; j < n; j++ {
				if w[j] != full[j] {
					t.Fatalf("row %d n=%d lane %d: %v, full derivation has %v", gi, n, j, w[j], full[j])
				}
			}
			for j := n; j < trials; j++ {
				if dst[j] != -1 {
					t.Fatalf("row %d n=%d: lane %d written past the prefix", gi, n, j)
				}
			}
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("want rows both in and outside the subsample, got %d in, %d out", in, out)
	}
}

func TestSampleCapAuto(t *testing.T) {
	cat := synthCatalog(5000, 50, 32)
	q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
	// auto: max(2000, 5000/(2*10)) = 2000 → p = 0.4
	eng, _ := New(q, cat, Options{Batches: 5, Trials: 10, Seed: 9})
	if got := eng.tables["sessions"].sampleP; got != 0.4 {
		t.Errorf("auto sampleP = %v", got)
	}
	// negative = unbounded
	q2, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
	eng2, _ := New(q2, cat, Options{Batches: 5, Trials: 10, Seed: 9, BootstrapSampleCap: -1})
	if got := eng2.tables["sessions"].sampleP; got != 1 {
		t.Errorf("unbounded sampleP = %v", got)
	}
}

// TestSubsampledCIsStillCoverTruth verifies the m-out-of-n adjustment:
// with a 10% bootstrap subsample, the reported CIs must still cover the
// ground truth in most batches (they describe the full prefix, not the
// subsample).
func TestSubsampledCIsStillCoverTruth(t *testing.T) {
	cat := synthCatalog(10000, 50, 33)
	q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
	exact, _ := exec.Run(q, cat)
	truth, _ := exact.Rows[0][0].AsFloat()

	q2, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
	eng, err := New(q2, cat, Options{Batches: 10, Trials: 100, Seed: 11, BootstrapSampleCap: 1000})
	if err != nil {
		t.Fatal(err)
	}
	contains := 0
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if s.Rows[0][0].CI.Contains(truth) {
			contains++
		}
	}
	if contains < 8 {
		t.Errorf("subsampled CI covered truth in %d/10 batches", contains)
	}
}

// TestSubsampledWidthTracksFullWidth compares CI widths with and
// without subsampling: the adjusted widths should be within a small
// factor of the unbounded-bootstrap widths.
func TestSubsampledWidthTracksFullWidth(t *testing.T) {
	cat := synthCatalog(10000, 50, 34)
	width := func(cap int) float64 {
		q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
		eng, err := New(q, cat, Options{Batches: 4, Trials: 100, Seed: 12, BootstrapSampleCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		return s.Rows[0][0].CI.Width()
	}
	full := width(-1)
	sub := width(1500)
	if full <= 0 || sub <= 0 {
		t.Fatalf("widths: full=%v sub=%v", full, sub)
	}
	ratio := sub / full
	if ratio < 0.3 || ratio > 3.0 {
		t.Errorf("subsampled width %.4g vs full %.4g (ratio %.2f) — adjustment off", sub, full, ratio)
	}
}

func TestSnapshotEvalBudgetThinsTrials(t *testing.T) {
	cat := synthCatalog(4000, 50, 35)
	sql := `SELECT country, COUNT(*) FROM sessions GROUP BY country`
	q, _ := plan.Compile(sql, cat)
	// 5 groups, budget 16 → effTrials clamps to the floor of 8
	eng, err := New(q, cat, Options{Batches: 4, Trials: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	eng.evalBudget = 16
	s, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Rows {
		if !row[1].HasCI {
			t.Fatal("budgeted snapshot must still produce CIs")
		}
	}
	// Exactness at completion is unaffected by the budget.
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := exec.Run(q, cat)
	if len(final.Rows) != len(exact.Rows) {
		t.Fatalf("rows: %d vs %d", len(final.Rows), len(exact.Rows))
	}
}

// TestSubsampledNestedStillExact re-checks end-to-end exactness under
// aggressive subsampling for the nested query classes.
func TestSubsampledNestedStillExact(t *testing.T) {
	cat := synthCatalog(6000, 40, 36)
	queries := []string{
		`SELECT AVG(play_time) FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`,
		`SELECT SUM(extendedprice) FROM lineitem l WHERE quantity < (SELECT 0.5 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`,
		`SELECT orderkey, SUM(quantity) FROM lineitem WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 150) GROUP BY orderkey`,
	}
	for _, sql := range queries {
		q, err := plan.Compile(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := exec.Run(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		q2, _ := plan.Compile(sql, cat)
		eng, err := New(q2, cat, Options{Batches: 8, Trials: 25, Seed: 37, BootstrapSampleCap: 600})
		if err != nil {
			t.Fatal(err)
		}
		final, err := eng.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := final.ValueRows()
		if len(got) != len(exact.Rows) {
			t.Fatalf("%s: rows %d vs %d", sql, len(got), len(exact.Rows))
		}
		// compare multisets of rows via sorted key strings
		index := map[string]int{}
		for _, r := range exact.Rows {
			index[rowKey(r)]++
		}
		for _, r := range got {
			index[rowKey(r)]--
		}
		for k, v := range index {
			if v != 0 {
				t.Fatalf("%s: row multiset mismatch at %q", sql, k)
			}
		}
	}
}

func rowKey(r types.Row) string {
	cols := make([]int, len(r))
	vals := make(types.Row, len(r))
	for i := range r {
		cols[i] = i
		if f, ok := r[i].AsFloat(); ok {
			vals[i] = types.NewFloat(math.Round(f*1e6) / 1e6)
		} else {
			vals[i] = r[i]
		}
	}
	return vals.KeyString(cols)
}

func TestNoCommitFallbackStillExact(t *testing.T) {
	cat := synthCatalog(3000, 30, 38)
	sql := `SELECT AVG(play_time) FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	exact, _ := exec.Run(q, cat)
	q2, _ := plan.Compile(sql, cat)
	eng, err := New(q2, cat, Options{Batches: 6, Trials: 10, Seed: 39})
	if err != nil {
		t.Fatal(err)
	}
	// Force the guaranteed-termination path: with noCommit everything
	// stays uncertain, yet results remain exact at completion.
	eng.bind.noCommit = true
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := final.ValueRows()[0][0].AsFloat()
	want, _ := exact.Rows[0][0].AsFloat()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("noCommit final = %v, want %v", got, want)
	}
	// Under noCommit the cached set never drains (classification is
	// disabled) — correctness comes from snapshot-time evaluation.
	if final.UncertainRows == 0 {
		t.Error("noCommit mode should keep tuples uncertain (none classified)")
	}
}

// TestFullTablesReadUpfront exercises §2's control over which relations
// stream: with the inner relation marked full, the nested aggregate is
// exact from the first batch, so no tuples are ever uncertain.
func TestFullTablesReadUpfront(t *testing.T) {
	cat := synthCatalog(3000, 30, 41)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	exact, _ := exec.Run(q, cat)

	q2, _ := plan.Compile(sql, cat)
	eng, err := New(q2, cat, Options{
		Batches: 6, Trials: 10, Seed: 42, FullTables: []string{"SESSIONS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	// The whole table arrived in batch 1: answer already exact.
	if s.FractionProcessed != 1 {
		t.Fatalf("fraction after batch 1 = %v", s.FractionProcessed)
	}
	got, _ := s.Rows[0][0].Value.AsFloat()
	want, _ := exact.Rows[0][0].AsFloat()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("first-batch answer = %v, want exact %v", got, want)
	}
	if s.UncertainRows != 0 {
		t.Errorf("uncertain = %d with a fully-loaded table", s.UncertainRows)
	}
	// Remaining batches are empty no-ops.
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := final.Rows[0][0].Value.AsFloat()
	if math.Abs(got2-want) > 1e-9 {
		t.Errorf("final = %v", got2)
	}
}

// TestParallelMatchesSerial compares a 4-worker run to a serial run on
// the same data and seed: values must match exactly (group ordering may
// differ, so rows are compared keyed).
func TestParallelMatchesSerial(t *testing.T) {
	// 30000 rows over 2 batches → 15000-row batches, well above the
	// 2×2048 threshold, so the parallel path genuinely runs.
	cat := synthCatalog(30000, 40, 51)
	queries := []string{
		`SELECT AVG(play_time) FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`,
		`SELECT country, COUNT(*), SUM(play_time) FROM sessions GROUP BY country`,
		`SELECT SUM(extendedprice) FROM lineitem l WHERE quantity < (SELECT 0.6 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`,
	}
	for _, sql := range queries {
		run := func(par int) map[string]types.Row {
			q, err := plan.Compile(sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(q, cat, Options{Batches: 2, Trials: 15, Seed: 52, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			final, err := eng.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]types.Row{}
			for _, r := range final.ValueRows() {
				out[rowKey(r[:1])] = r
			}
			return out
		}
		serial, parallel := run(1), run(4)
		if len(serial) != len(parallel) {
			t.Fatalf("%s: rows %d vs %d", sql, len(serial), len(parallel))
		}
		for k, sr := range serial {
			pr, ok := parallel[k]
			if !ok {
				t.Fatalf("%s: group %v missing in parallel run", sql, sr)
			}
			for c := range sr {
				sf, sok := sr[c].AsFloat()
				pf, pok := pr[c].AsFloat()
				if sok != pok || (sok && math.Abs(sf-pf) > 1e-9*(1+math.Abs(sf))) {
					t.Fatalf("%s: col %d: serial %v vs parallel %v", sql, c, sr[c], pr[c])
				}
			}
		}
	}
}

// TestNonCLTGroupParamFallsBackToBootstrap uses a correlated MEDIAN
// subquery — not CLT-estimable — so classification must go through the
// bootstrap-replica evidence path, and still end exact.
func TestNonCLTGroupParamFallsBackToBootstrap(t *testing.T) {
	cat := synthCatalog(3000, 15, 53)
	sql := `SELECT COUNT(*) FROM lineitem l
		WHERE quantity < (SELECT MEDIAN(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`
	q, _ := plan.Compile(sql, cat)
	exact, err := exec.Run(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := plan.Compile(sql, cat)
	eng, err := New(q2, cat, Options{Batches: 6, Trials: 20, Seed: 54, BootstrapSampleCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := final.ValueRows()[0][0].AsFloat()
	want, _ := exact.Rows[0][0].AsFloat()
	// MEDIAN is a t-digest sketch: the batch and online engines fold in
	// different orders and so disagree slightly on the inner medians,
	// moving a few boundary tuples. Allow a small relative tolerance.
	if math.Abs(got-want) > 0.005*want {
		t.Errorf("final = %v, want ≈%v (recomputes=%d)", got, want, final.Recomputes)
	}
}

// TestNonCLTSetHavingFallsBackToBootstrap uses MEDIAN in an IN-subquery
// HAVING — the set-block bootstrap-range fallback.
func TestNonCLTSetHavingFallsBackToBootstrap(t *testing.T) {
	cat := synthCatalog(2400, 12, 55)
	sql := `SELECT COUNT(*) FROM lineitem
		WHERE partkey IN (SELECT partkey FROM lineitem GROUP BY partkey HAVING MEDIAN(quantity) > 26)`
	q, _ := plan.Compile(sql, cat)
	exact, err := exec.Run(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := plan.Compile(sql, cat)
	eng, err := New(q2, cat, Options{Batches: 6, Trials: 20, Seed: 56, BootstrapSampleCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := final.ValueRows()[0][0].AsFloat()
	want, _ := exact.Rows[0][0].AsFloat()
	// MEDIAN-based membership: whole groups may flip on sketch noise.
	if math.Abs(got-want) > 0.02*want {
		t.Errorf("final = %v, want %v (recomputes=%d)", got, want, final.Recomputes)
	}
}

// TestConfidenceLevelAffectsWidth checks wider confidence → wider CI.
func TestConfidenceLevelAffectsWidth(t *testing.T) {
	cat := synthCatalog(5000, 20, 57)
	width := func(conf float64) float64 {
		q, _ := plan.Compile(`SELECT AVG(play_time) FROM sessions`, cat)
		eng, err := New(q, cat, Options{Batches: 5, Trials: 100, Seed: 58, Confidence: conf})
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		return s.Rows[0][0].CI.Width()
	}
	w50, w99 := width(0.5), width(0.99)
	if w99 <= w50 {
		t.Errorf("99%% CI (%.4g) should be wider than 50%% CI (%.4g)", w99, w50)
	}
}
