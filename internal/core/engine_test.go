package core

import (
	"fmt"
	"math"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
	"fluodb/internal/workload"
)

// synthCatalog builds a deterministic synthetic catalog with a sessions
// fact table (n rows) and a lineitem fact table (n rows, nParts parts).
func synthCatalog(n, nParts int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	rng := bootstrap.NewRNG(seed)

	s := storage.NewTable("sessions", types.NewSchema(
		"session_id", types.KindInt,
		"buffer_time", types.KindFloat,
		"play_time", types.KindFloat,
		"country", types.KindString,
	))
	countries := []string{"US", "DE", "FR", "BR", "IN"}
	for i := 0; i < n; i++ {
		buf := rng.Float64() * 100
		// play time negatively correlated with buffering + noise
		play := 800 - 5*buf + rng.Float64()*200
		_ = s.Append(types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(buf),
			types.NewFloat(play),
			types.NewString(countries[rng.Intn(len(countries))]),
		})
	}
	cat.Put(s)

	li := storage.NewTable("lineitem", types.NewSchema(
		"orderkey", types.KindInt,
		"partkey", types.KindInt,
		"quantity", types.KindFloat,
		"extendedprice", types.KindFloat,
	))
	for i := 0; i < n; i++ {
		pk := rng.Intn(nParts)
		q := 1 + rng.Float64()*49
		_ = li.Append(types.Row{
			types.NewInt(int64(i / 4)), // ~4 lines per order
			types.NewInt(int64(pk)),
			types.NewFloat(q),
			types.NewFloat(q * (10 + rng.Float64()*90)),
		})
	}
	cat.Put(li)
	return cat
}

func onlineVsExact(t *testing.T, cat *storage.Catalog, sql string, opt Options) (*Snapshot, *exec.Result, *Engine) {
	t.Helper()
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	exact, err := exec.Run(q, cat)
	if err != nil {
		t.Fatalf("exact Run: %v", err)
	}
	// Fresh compile for the engine so param state is independent.
	q2, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q2, cat, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return final, exact, eng
}

// rowsEqual compares snapshot point rows with exact rows, keyed by the
// first nKey columns, within tolerance.
func rowsEqual(t *testing.T, got []types.Row, want []types.Row, nKey int, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d, want %d\n got=%v\nwant=%v", len(got), len(want), got, want)
	}
	index := map[string]types.Row{}
	for _, w := range want {
		cols := make([]int, nKey)
		for i := range cols {
			cols[i] = i
		}
		index[w.KeyString(cols)] = w
	}
	for _, g := range got {
		cols := make([]int, nKey)
		for i := range cols {
			cols[i] = i
		}
		w, ok := index[g.KeyString(cols)]
		if !ok {
			t.Fatalf("unexpected group %v", g)
		}
		for c := nKey; c < len(g); c++ {
			gf, gok := g[c].AsFloat()
			wf, wok := w[c].AsFloat()
			if gok != wok {
				t.Fatalf("col %d: got %v, want %v", c, g[c], w[c])
			}
			if gok && math.Abs(gf-wf) > tol*(1+math.Abs(wf)) {
				t.Fatalf("col %d: got %v, want %v", c, gf, wf)
			}
		}
	}
}

var fastOpt = Options{Batches: 10, Trials: 30, Seed: 7}

func TestSBIFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(3000, 50, 1)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	final, exact, eng := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
	if final.FractionProcessed != 1 {
		t.Errorf("fraction = %v", final.FractionProcessed)
	}
	if eng.Metrics().Batches != 10 {
		t.Errorf("batches = %d", eng.Metrics().Batches)
	}
}

func TestSBIIntermediateEstimatesConverge(t *testing.T) {
	cat := synthCatalog(4000, 50, 2)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	exact, _ := exec.Run(q, cat)
	truth, _ := exact.Rows[0][0].AsFloat()

	q2, _ := plan.Compile(sql, cat)
	eng, err := New(q2, cat, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	var rsds []float64
	var errs []float64
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Rows) != 1 {
			t.Fatalf("batch %d rows = %d", s.Batch, len(s.Rows))
		}
		cell := s.Rows[0][0]
		if eng.Done() {
			// All data seen: the answer is exact and carries no CI.
			if cell.HasCI || s.RSD() != 0 {
				t.Fatalf("exact final snapshot: HasCI %v, RSD %v", cell.HasCI, s.RSD())
			}
		} else {
			if !cell.HasCI {
				t.Fatal("aggregate cell should have a CI")
			}
			rsds = append(rsds, cell.RSD)
		}
		got, _ := cell.Value.AsFloat()
		errs = append(errs, math.Abs(got-truth)/math.Abs(truth))
	}
	// First estimate within 10% of truth (uniform random sample).
	if errs[0] > 0.10 {
		t.Errorf("first estimate error = %v", errs[0])
	}
	// RSD shrinks from the first to the last estimated batch.
	if rsds[len(rsds)-1] > rsds[0] {
		t.Errorf("RSD did not shrink: first %v, last %v", rsds[0], rsds[len(rsds)-1])
	}
	if errs[len(errs)-1] > 1e-9 {
		t.Errorf("final error = %v", errs[len(errs)-1])
	}
}

func TestUncertainSetSmallAndEmptiesAtEnd(t *testing.T) {
	cat := synthCatalog(4000, 50, 3)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	eng, err := New(q, cat, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	maxU := 0
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if s.UncertainRows > maxU {
			maxU = s.UncertainRows
		}
	}
	// §3.2/§5: uncertain sets are very small in practice — they hold the
	// tuples whose buffer_time is within the (shrinking) variation range
	// of the mean.
	if maxU > 4000/4 {
		t.Errorf("uncertain set too large: %d of 4000", maxU)
	}
	if maxU == 0 {
		t.Error("expected some uncertain tuples near the threshold")
	}
}

func TestGroupedRootFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(3000, 50, 4)
	// C1-style: histogram of slow-buffering sessions
	sql := `SELECT FLOOR(play_time / 100), COUNT(*), AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)
		GROUP BY 1`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 1, 1e-9)
}

func TestQ17CorrelatedFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(3000, 20, 5)
	sql := `SELECT SUM(extendedprice) / 7.0 FROM lineitem l
		WHERE quantity < (SELECT 0.5 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

func TestQ18SetFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(2000, 20, 6)
	// orders whose total quantity is large
	sql := `SELECT orderkey, SUM(quantity) FROM lineitem
		WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 120)
		GROUP BY orderkey`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 1, 1e-9)
}

func TestQ11HavingFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(2000, 10, 7)
	sql := `SELECT partkey, SUM(extendedprice) FROM lineitem GROUP BY partkey
		HAVING SUM(extendedprice) > (SELECT SUM(extendedprice) * 0.11 FROM lineitem)`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 1, 1e-9)
}

func TestTwoLevelNestingFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(2500, 50, 8)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) + STDDEV(buffer_time) FROM sessions
			WHERE play_time > (SELECT AVG(play_time) FROM sessions))`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

func TestPlainAggregateNoNesting(t *testing.T) {
	cat := synthCatalog(2000, 50, 9)
	sql := `SELECT COUNT(*), SUM(play_time), AVG(play_time) FROM sessions WHERE country = 'US'`
	final, exact, eng := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
	// A monotone query never caches uncertain tuples.
	if got := eng.UncertainRows(); got != 0 {
		t.Errorf("uncertain rows = %d, want 0", got)
	}
}

func TestExtensiveAggregateScaledEstimates(t *testing.T) {
	cat := synthCatalog(2000, 50, 10)
	sql := `SELECT COUNT(*) FROM sessions`
	q, _ := plan.Compile(sql, cat)
	eng, err := New(q, cat, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	// After 1/10 of the data, the scaled COUNT estimate should be ~2000.
	got, _ := s.Rows[0][0].Value.AsFloat()
	if got != 2000 {
		t.Errorf("scaled count after first batch = %v, want 2000 (exact for COUNT(*))", got)
	}
}

func TestCIContainsTruthForPlainAvg(t *testing.T) {
	cat := synthCatalog(5000, 50, 11)
	sql := `SELECT AVG(play_time) FROM sessions`
	q, _ := plan.Compile(sql, cat)
	exact, _ := exec.Run(q, cat)
	truth, _ := exact.Rows[0][0].AsFloat()

	q2, _ := plan.Compile(sql, cat)
	eng, _ := New(q2, cat, Options{Batches: 10, Trials: 100, Seed: 12})
	contains := 0
	total := 0
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		total++
		if s.Rows[0][0].CI.Contains(truth) {
			contains++
		}
	}
	// 95% CIs should contain the truth in the vast majority of batches.
	if contains < total-2 {
		t.Errorf("CI contained truth in %d/%d batches", contains, total)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	run := func() []float64 {
		cat := synthCatalog(2000, 50, 13)
		q, _ := plan.Compile(sql, cat)
		eng, _ := New(q, cat, Options{Batches: 8, Trials: 25, Seed: 99})
		var vals []float64
		for !eng.Done() {
			s, _ := eng.Step()
			v, _ := s.Rows[0][0].Value.AsFloat()
			vals = append(vals, v, s.Rows[0][0].CI.Lo, s.Rows[0][0].CI.Hi)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFailureRecoveryStillExact(t *testing.T) {
	cat := synthCatalog(3000, 50, 14)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	// A tiny ε makes committed ranges fragile → recomputations happen.
	opt := Options{Batches: 20, Trials: 10, Seed: 15, EpsilonSigma: 0.05}
	final, exact, eng := onlineVsExact(t, cat, sql, opt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
	t.Logf("recomputes with tiny epsilon: %d", eng.Metrics().Recomputes)
}

func TestLargerEpsilonFewerRecomputes(t *testing.T) {
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	recomputes := func(eps float64) int {
		cat := synthCatalog(3000, 50, 16)
		q, _ := plan.Compile(sql, cat)
		eng, _ := New(q, cat, Options{Batches: 20, Trials: 10, Seed: 17, EpsilonSigma: eps})
		_, _ = eng.Run(nil)
		return eng.Metrics().Recomputes
	}
	small, large := recomputes(0.02), recomputes(4.0)
	if small < large {
		t.Errorf("recomputes: eps=0.02 → %d, eps=4 → %d; expected monotone trend", small, large)
	}

	// The exact-answer side of the ε trade on two suite queries, at the
	// settings internal/bench's TestAblationEpsilonTrend (ε) and
	// TestAblationBatches (k) use: ε and k only move work between the
	// deterministic and uncertain sets, so the final snapshot must equal
	// the batch answer at every setting.
	for _, tc := range []struct {
		name string
		cat  *storage.Catalog
	}{
		{"SBI", workload.ConvivaCatalog(4000, 3)},
		{"Q17", workload.TPCHCatalog(4000, 30, 3)},
	} {
		wq, _ := workload.ByName(tc.name)
		q, err := plan.Compile(wq.SQL, tc.cat)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := exec.Run(q, tc.cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 5, 8} {
			for _, eps := range []float64{0.05, 4} {
				q, _ := plan.Compile(wq.SQL, tc.cat)
				eng, err := New(q, tc.cat, Options{Batches: k, Trials: 15, Seed: 3, EpsilonSigma: eps})
				if err != nil {
					t.Fatal(err)
				}
				final, err := eng.Run(nil)
				eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
			}
		}
	}
}

func TestOrderByLimitInSnapshots(t *testing.T) {
	cat := synthCatalog(2000, 50, 18)
	sql := `SELECT country, COUNT(*) AS c FROM sessions GROUP BY country ORDER BY c DESC LIMIT 3`
	q, _ := plan.Compile(sql, cat)
	eng, err := New(q, cat, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Rows) != 3 {
		t.Fatalf("limit rows = %d", len(final.Rows))
	}
	c0, _ := final.Rows[0][1].Value.AsFloat()
	c1, _ := final.Rows[1][1].Value.AsFloat()
	if c0 < c1 {
		t.Error("descending order violated")
	}
}

func TestEarlyStopViaRunCallback(t *testing.T) {
	cat := synthCatalog(2000, 50, 19)
	sql := `SELECT AVG(play_time) FROM sessions`
	q, _ := plan.Compile(sql, cat)
	eng, _ := New(q, cat, fastOpt)
	steps := 0
	_, err := eng.Run(func(s *Snapshot) bool {
		steps++
		return steps < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 || eng.Batch() != 3 {
		t.Errorf("steps = %d, batch = %d", steps, eng.Batch())
	}
	// Step continues from where Run stopped.
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Batch() != 4 {
		t.Errorf("batch = %d", eng.Batch())
	}
}

func TestStepAfterDoneReturnsErrDone(t *testing.T) {
	cat := synthCatalog(100, 10, 20)
	q, _ := plan.Compile(`SELECT COUNT(*) FROM sessions`, cat)
	eng, _ := New(q, cat, Options{Batches: 2, Trials: 5, Seed: 1})
	_, _ = eng.Step()
	_, _ = eng.Step()
	if _, err := eng.Step(); err != ErrDone {
		t.Errorf("err = %v, want ErrDone", err)
	}
}

func TestProjectionQueryRejected(t *testing.T) {
	cat := synthCatalog(100, 10, 21)
	q, _ := plan.Compile(`SELECT session_id FROM sessions`, cat)
	if _, err := New(q, cat, fastOpt); err == nil {
		t.Error("projection-only query should be rejected for online execution")
	}
}

func TestSnapshotRSDAggregation(t *testing.T) {
	s := &Snapshot{Rows: [][]CellEstimate{
		{{HasCI: true, RSD: 0.1}, {HasCI: false}},
		{{HasCI: true, RSD: 0.3}},
	}}
	if got := s.RSD(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RSD = %v", got)
	}
	empty := &Snapshot{}
	if empty.RSD() != 0 {
		t.Error("empty snapshot RSD")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cat := synthCatalog(100, 10, 22)
	q, _ := plan.Compile(`SELECT COUNT(*) FROM sessions`, cat)
	eng, err := New(q, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := eng.Options()
	if o.Batches != 10 || o.Trials != 100 || o.Confidence != 0.95 || o.EpsilonSigma != 1.0 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestSelectListParamFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(2000, 30, 23)
	sql := `SELECT AVG(play_time) - (SELECT AVG(buffer_time) FROM sessions) FROM sessions`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

func TestHavingParamFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(2500, 30, 24)
	sql := `SELECT country, AVG(play_time) FROM sessions GROUP BY country
		HAVING AVG(play_time) > (SELECT AVG(play_time) FROM sessions)`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 1, 1e-9)
}

// TestConcurrentEnginesShareCatalog runs several independent engines over
// one read-only catalog in parallel — the multi-user console scenario of
// the demo (§6). Run under -race this also proves the catalog is safe
// for concurrent readers.
func TestConcurrentEnginesShareCatalog(t *testing.T) {
	cat := synthCatalog(2000, 30, 25)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	exact, _ := exec.Run(q, cat)
	want, _ := exact.Rows[0][0].AsFloat()

	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			q, err := plan.Compile(sql, cat)
			if err != nil {
				errs <- err
				return
			}
			eng, err := New(q, cat, Options{Batches: 5, Trials: 10, Seed: uint64(w) + 1})
			if err != nil {
				errs <- err
				return
			}
			final, err := eng.Run(nil)
			if err != nil {
				errs <- err
				return
			}
			got, _ := final.ValueRows()[0][0].AsFloat()
			if math.Abs(got-want) > 1e-9 {
				errs <- fmtErrorf("worker %d: got %v want %v", w, got, want)
				return
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func fmtErrorf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}

func TestSnapshotBlockStats(t *testing.T) {
	cat := synthCatalog(2000, 30, 26)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	eng, _ := New(q, cat, Options{Batches: 4, Trials: 10, Seed: 27})
	s, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(s.Blocks))
	}
	inner, root := s.Blocks[0], s.Blocks[1]
	if inner.Kind != "scalar" || root.Kind != "root" {
		t.Errorf("kinds = %s, %s", inner.Kind, root.Kind)
	}
	if inner.Uncertain != 0 {
		t.Errorf("inner uncertain = %d (no uncertain predicates)", inner.Uncertain)
	}
	if root.Uncertain == 0 {
		t.Error("root should cache borderline tuples")
	}
	if root.Uncertain+inner.Uncertain != s.UncertainRows {
		t.Error("block stats should sum to the total")
	}
	if inner.Table != "sessions" || root.Groups != 1 {
		t.Errorf("stats = %+v", s.Blocks)
	}
}

// TestOnlineJoinFinalMatchesExact streams the fact table through a
// dimension hash join (the paper's "stream the fact table, read
// dimension tables in entirety", §2).
func TestOnlineJoinFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(2000, 10, 28)
	dim := storage.NewTable("parts", types.NewSchema(
		"partkey", types.KindInt, "brand", types.KindString))
	for pk := 0; pk < 10; pk++ {
		_ = dim.Append(types.Row{
			types.NewInt(int64(pk)),
			types.NewString([]string{"B1", "B2"}[pk%2]),
		})
	}
	cat.Put(dim)
	sql := `SELECT brand, SUM(extendedprice), COUNT(*) FROM lineitem l
		JOIN parts p ON l.partkey = p.partkey
		WHERE quantity > (SELECT AVG(quantity) FROM lineitem)
		GROUP BY brand`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 1, 1e-9)
}

// TestDeepNestingFinalMatchesExact exercises three levels of nested
// aggregate subqueries ("arbitrary nesting", §2).
func TestDeepNestingFinalMatchesExact(t *testing.T) {
	cat := synthCatalog(2500, 40, 29)
	sql := `SELECT COUNT(*), AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions
			WHERE play_time > (SELECT AVG(play_time) FROM sessions
				WHERE buffer_time < (SELECT AVG(buffer_time) FROM sessions)))`
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4 (three nested levels + root)", len(q.Blocks))
	}
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

// TestNestedSetBlockWithUncertainRows nests three levels through an
// IN-subquery that has its own uncertain predicate: the set block caches
// uncertain rows, so every lazily probed key evaluates a bucket of them.
// (The per-key membership evaluator used to re-fold the block's whole
// uncertain set once per probed key.)
func TestNestedSetBlockWithUncertainRows(t *testing.T) {
	cat := synthCatalog(3000, 25, 41)
	sql := `SELECT partkey, COUNT(*), SUM(extendedprice) FROM lineitem
		WHERE orderkey IN (SELECT orderkey FROM lineitem
			WHERE quantity > (SELECT AVG(quantity) FROM lineitem)
			GROUP BY orderkey HAVING SUM(quantity) > 60)
		GROUP BY partkey`
	final, exact, eng := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 1, 1e-9)
	if v := eng.AuditInvariants(); len(v) != 0 {
		t.Fatalf("deterministic-set violations: %+v", v)
	}
	if len(eng.q.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 (scalar → set → root)", len(eng.q.Blocks))
	}
	set := eng.runners[1]
	if set.b.Kind != plan.SetBlock || set.uncertainWhere == nil {
		t.Fatalf("block 1 is %v with uncertain predicate %v, want a set block with one", set.b.Kind, set.uncertainWhere)
	}
	cached := 0
	for _, n := range eng.Metrics().UncertainPerBatch {
		cached += n
	}
	if cached == 0 {
		t.Fatal("no uncertain rows were ever cached; the regression exercises nothing")
	}
}

// TestMixedParamsInOnePredicate combines a scalar and a correlated param
// in one WHERE clause.
func TestMixedParamsInOnePredicate(t *testing.T) {
	cat := synthCatalog(2500, 20, 30)
	sql := `SELECT COUNT(*) FROM lineitem l
		WHERE quantity < (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
		  AND extendedprice > (SELECT AVG(extendedprice) FROM lineitem)`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

// TestNullGroupKeysOnline checks NULL grouping keys survive the online
// path identically to batch execution.
func TestNullGroupKeysOnline(t *testing.T) {
	cat := storage.NewCatalog()
	tab := storage.NewTable("t", types.NewSchema(
		"g", types.KindString, "v", types.KindFloat))
	for i := 0; i < 300; i++ {
		g := types.Value(types.NewString([]string{"a", "b"}[i%2]))
		if i%5 == 0 {
			g = types.Null
		}
		_ = tab.Append(types.Row{g, types.NewFloat(float64(i))})
	}
	cat.Put(tab)
	sql := `SELECT g, COUNT(*), AVG(v) FROM t GROUP BY g`
	final, exact, _ := onlineVsExact(t, cat, sql, Options{Batches: 5, Trials: 10, Seed: 71})
	rowsEqual(t, final.ValueRows(), exact.Rows, 1, 1e-9)
	if len(final.Rows) != 3 {
		t.Fatalf("groups = %d (a, b, NULL)", len(final.Rows))
	}
}

// TestMoreBatchesThanRows covers k > n (each batch may be empty).
func TestMoreBatchesThanRows(t *testing.T) {
	cat := storage.NewCatalog()
	tab := storage.NewTable("t", types.NewSchema("v", types.KindFloat))
	for i := 0; i < 7; i++ {
		_ = tab.Append(types.Row{types.NewFloat(float64(i))})
	}
	cat.Put(tab)
	q, _ := plan.Compile(`SELECT SUM(v), COUNT(*) FROM t`, cat)
	eng, err := New(q, cat, Options{Batches: 50, Trials: 5, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := final.Rows[0][0].Value.AsFloat(); got != 21 {
		t.Errorf("sum = %v", got)
	}
	if got, _ := final.Rows[0][1].Value.AsFloat(); got != 7 {
		t.Errorf("count = %v", got)
	}
	if final.FractionProcessed != 1 {
		t.Errorf("fraction = %v", final.FractionProcessed)
	}
}

// TestEmptyTableOnline covers the degenerate empty input.
func TestEmptyTableOnline(t *testing.T) {
	cat := storage.NewCatalog()
	cat.Put(storage.NewTable("t", types.NewSchema("v", types.KindFloat)))
	q, _ := plan.Compile(`SELECT COUNT(*), AVG(v) FROM t`, cat)
	eng, err := New(q, cat, Options{Batches: 4, Trials: 5, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	final, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := final.Rows[0][0].Value.AsFloat(); got != 0 {
		t.Errorf("count = %v", got)
	}
	if !final.Rows[0][1].Value.IsNull() {
		t.Errorf("avg over empty = %v", final.Rows[0][1].Value)
	}
}

// TestSingleBatchIsExactImmediately covers k = 1 (degenerate online run).
func TestSingleBatchIsExactImmediately(t *testing.T) {
	cat := synthCatalog(500, 10, 74)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	exact, _ := exec.Run(q, cat)
	q2, _ := plan.Compile(sql, cat)
	eng, err := New(q2, cat, Options{Batches: 1, Trials: 10, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Rows[0][0].Value.AsFloat()
	want, _ := exact.Rows[0][0].AsFloat()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("k=1 answer = %v, want %v", got, want)
	}
	if !eng.Done() {
		t.Error("should be done after the single batch")
	}
}

// TestRepeatedSubqueryCompilesTwice covers the same subquery SQL used in
// two predicates (two independent blocks, both broadcast).
func TestRepeatedSubquery(t *testing.T) {
	cat := synthCatalog(2000, 20, 76)
	sql := `SELECT COUNT(*) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)
		  AND play_time > (SELECT AVG(play_time) FROM sessions)`
	q, _ := plan.Compile(sql, cat)
	if len(q.ScalarBlocks) != 2 {
		t.Fatalf("scalar blocks = %d", len(q.ScalarBlocks))
	}
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

// TestParamInsideCaseClassifiesConservatively covers an uncertain
// predicate wrapped in CASE — the interval evaluator cannot bound it, so
// tuples stay uncertain (correct, just slower) and the final answer is
// exact.
func TestParamInsideCase(t *testing.T) {
	cat := synthCatalog(1500, 20, 77)
	sql := `SELECT COUNT(*) FROM sessions
		WHERE CASE WHEN buffer_time > (SELECT AVG(buffer_time) FROM sessions)
			THEN play_time > 500 ELSE play_time > 700 END`
	final, exact, eng := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
	// the CASE makes most tuples uncertain mid-run; assert the machinery
	// noticed (peak > 0) without constraining how many
	if len(eng.Metrics().UncertainPerBatch) == 0 {
		t.Fatal("metrics missing")
	}
	peak := 0
	for _, u := range eng.Metrics().UncertainPerBatch {
		if u > peak {
			peak = u
		}
	}
	if peak == 0 {
		t.Error("CASE predicate should produce uncertain tuples")
	}
}

// TestBetweenWithParam covers BETWEEN whose bounds involve a nested
// aggregate (rewritten into two comparisons, one uncertain).
func TestBetweenWithParam(t *testing.T) {
	cat := synthCatalog(2000, 20, 78)
	sql := `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time BETWEEN 10 AND (SELECT AVG(buffer_time) FROM sessions)`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

// TestNotInSubqueryOnline covers negated set membership online.
func TestNotInSubqueryOnline(t *testing.T) {
	cat := synthCatalog(2000, 20, 79)
	sql := `SELECT COUNT(*) FROM lineitem
		WHERE orderkey NOT IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 150)`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}

// TestOrPredicateWithParamOnline covers disjunctions mixing certain and
// uncertain terms (the whole OR becomes one uncertain conjunct).
func TestOrPredicateWithParamOnline(t *testing.T) {
	cat := synthCatalog(2000, 20, 80)
	sql := `SELECT COUNT(*) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions) OR play_time > 900`
	final, exact, _ := onlineVsExact(t, cat, sql, fastOpt)
	rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
}
