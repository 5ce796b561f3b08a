package core

import (
	"fmt"
	"strings"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
	"fluodb/internal/workload"
)

// The columnar path (columnar.go) is pinned to be bit-identical to the
// row path: same snapshots, same CIs, same group order, across seeds and
// parallelism, with NULLs, dictionary strings, compilable WHERE clauses
// and nested-subquery (uncertain) predicates in play. Seams.RowPath
// provides the reference run.

// columnarCatalog builds a fact table exercising every columnar feature:
// dictionary string keys, an int key, integer-valued float measures
// (exact float adds, so bit-identity is meaningful), NULLs in both a
// measure and a key column, and a second string column for LIKE.
func columnarCatalog(n int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("facts", types.NewSchema(
		"a", types.KindString,
		"b", types.KindInt,
		"x", types.KindFloat,
		"s", types.KindString,
	))
	as := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	ss := []string{"alpha", "beta", "gamma", ""}
	// First rows enumerate all groups so part 0 fixes insertion order.
	for i := 0; i < 8; i++ {
		for j := 0; j < 16; j++ {
			_ = t.Append(types.Row{
				types.NewString(as[i]),
				types.NewInt(int64(j)),
				types.NewFloat(float64(i + j)),
				types.NewString(ss[(i+j)%len(ss)]),
			})
		}
	}
	rng := bootstrap.NewRNG(seed)
	for i := 128; i < n; i++ {
		row := types.Row{
			types.NewString(as[rng.Intn(len(as))]),
			types.NewInt(int64(rng.Intn(16))),
			types.NewFloat(float64(rng.Intn(1000))),
			types.NewString(ss[rng.Intn(len(ss))]),
		}
		if rng.Intn(12) == 0 {
			row[2] = types.Null // NULL measure
		}
		if rng.Intn(40) == 0 {
			row[1] = types.Null // NULL group key
		}
		_ = t.Append(row)
	}
	cat.Put(t)
	// Dimension tables for the dims-grouped columnar path. bdim covers
	// only b∈[0,12): b=12..15 and NULL b miss the inner join, and keys 3
	// and 7 are duplicated so one fact key expands to two joined rows
	// (memoCnt > 1 in the join memo).
	bd := storage.NewTable("bdim", types.NewSchema(
		"bkey", types.KindInt, "cat", types.KindString))
	for k := 0; k < 12; k++ {
		_ = bd.Append(types.Row{
			types.NewInt(int64(k)),
			types.NewString([]string{"lo", "mid", "hi"}[k%3]),
		})
		if k == 3 || k == 7 {
			_ = bd.Append(types.Row{
				types.NewInt(int64(k)), types.NewString("dup"),
			})
		}
	}
	cat.Put(bd)
	// adim joins the dictionary string key; "hh" is missing so the
	// string-keyed join also filters.
	ad := storage.NewTable("adim", types.NewSchema(
		"akey", types.KindString, "region", types.KindString))
	for i, a := range as[:7] {
		_ = ad.Append(types.Row{
			types.NewString(a),
			types.NewString([]string{"north", "south"}[i%2]),
		})
	}
	cat.Put(ad)
	return cat
}

// columnarQueries span the eligibility space: plain fold, vectorized
// certain WHERE (numeric, string/LIKE, IS NULL, AND/OR), scalar blocks,
// uncertain nested-subquery predicates that compile to the tri-state
// kernel (scalar parameter; correlated and IN-set through keyed slots)
// and one that classifies through the interpreted evalTri inside the
// sweep (a correlation on two columns), and
// arithmetic aggregate arguments folded from computed columns. The
// scalar shapes fold their whole selection as one run of the fold
// kernel: over a column with NULLs, over a computed column that is NULL
// wherever either operand is, and as a W-only (COUNT) stream.
//
// reassoc marks queries whose addends are not integral (x / b): a
// parallel merge reassociates their sums, so the row-path reference for
// P > 1 runs at the same parallelism, over the identical partition.
var columnarQueries = []struct {
	name    string
	sql     string
	reassoc bool
}{
	{"group-fold", `SELECT a, b, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a, b`, false},
	{"certain-where", `SELECT a, COUNT(x), SUM(x) FROM facts WHERE x < 600 AND b >= 4 GROUP BY a`, false},
	{"string-where", `SELECT b, COUNT(x), AVG(x) FROM facts WHERE s LIKE 'a%' OR s = 'beta' GROUP BY b`, false},
	{"null-where", `SELECT a, COUNT(x) FROM facts WHERE x IS NOT NULL AND b IS NOT NULL GROUP BY a`, false},
	{"scalar", `SELECT COUNT(x), SUM(x), AVG(x) FROM facts WHERE b < 12`, false},
	{"scalar-expr-nulls", `SELECT SUM(x * b), AVG(x * b) FROM facts`, false},
	{"scalar-count", `SELECT COUNT(x) FROM facts WHERE s LIKE 'a%'`, false},
	{"uncertain", `SELECT a, COUNT(x), SUM(x) FROM facts
		WHERE b >= 2 AND x < (SELECT 0.9 * AVG(x) FROM facts) GROUP BY a`, false},
	{"correlated", `SELECT a, COUNT(x), SUM(x) FROM facts
		WHERE x < (SELECT 0.9 * AVG(x) FROM facts f2 WHERE f2.b = facts.b) GROUP BY a`, false},
	{"in-set", `SELECT a, COUNT(x), SUM(x) FROM facts
		WHERE b IN (SELECT b FROM facts GROUP BY b HAVING AVG(x) > 490) GROUP BY a`, false},
	{"correlated-2key", `SELECT a, COUNT(x), SUM(x) FROM facts
		WHERE x < (SELECT 0.9 * AVG(x) FROM facts f2 WHERE f2.b = facts.b AND f2.a = facts.a) GROUP BY a`, false},
	{"dims-join", `SELECT cat, COUNT(x), SUM(x), AVG(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey GROUP BY cat`, false},
	{"dims-chain", `SELECT region, cat, COUNT(x), SUM(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey
		JOIN adim e ON f.a = e.akey
		WHERE x < 700 GROUP BY region, cat`, false},
	{"dims-mixed-keys", `SELECT a, cat, COUNT(x), SUM(x), AVG(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey GROUP BY a, cat`, false},
	{"dims-uncertain", `SELECT cat, COUNT(x), SUM(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey
		WHERE x < (SELECT 0.9 * AVG(x) FROM facts) GROUP BY cat`, false},
	{"expr-q11", `SELECT a, SUM(x * b) FROM facts GROUP BY a
		HAVING SUM(x * b) > (SELECT SUM(x * b) * 0.1 FROM facts)`, false},
	{"expr-div", `SELECT a, AVG(x / b) FROM facts GROUP BY a`, true},
	{"expr-count-neg", `SELECT a, COUNT(b - 3), SUM(-b) FROM facts GROUP BY a`, false},
	{"expr-uncertain", `SELECT a, COUNT(x), SUM(x * b) FROM facts
		WHERE x < (SELECT 0.9 * AVG(x) FROM facts) GROUP BY a`, false},
	{"expr-dims", `SELECT cat, SUM(x * b), AVG(x + b) FROM facts f
		JOIN bdim d ON f.b = d.bkey GROUP BY cat`, false},
	// Multi-source folds: a constant source beside a column (the C3/Q20
	// root shape), two columns whose NULLs fall on different rows (x's
	// and b's are drawn independently), and a dims block whose
	// duplicated dim keys fan a fact row out twice into the same group
	// (GROUP BY a) — all past momentMin by the last batch, so moment-mode
	// rows add three or four streams.
	{"const-source", `SELECT a, COUNT(*), AVG(x) FROM facts GROUP BY a`, false},
	{"two-sources", `SELECT a, SUM(x), AVG(b), COUNT(b) FROM facts GROUP BY a`, false},
	{"scalar-sources", `SELECT COUNT(*), SUM(b), AVG(x * b) FROM facts`, false},
	{"dims-fanout", `SELECT a, COUNT(*), SUM(x), AVG(b * 2) FROM facts f
		JOIN bdim d ON f.b = d.bkey GROUP BY a`, false},
}

func columnarOptions(seed uint64, parallelism int, rowPath bool) Options {
	return WithSeams(Options{
		Batches: 3, Trials: 40, Seed: seed,
		BootstrapSampleCap: -1,
		Parallelism:        parallelism,
	}, Seams{PartRows: 512, RowPath: rowPath})
}

// columnarTrialTails are trial counts off the fold kernel's four-trial
// blocks: a lone partial block (1, 3) and a tail after full blocks (41).
var columnarTrialTails = []int{1, 3, 41}

// TestColumnarBitIdentical asserts the columnar classify/fold path
// reproduces the row path's snapshots bit for bit across seeds, trial
// counts (40 at every seed, columnarTrialTails at one) and P∈{1,2,4,8}.
// The row-path reference runs serially (at the same P for reassoc
// queries); the parallel row path is itself pinned to serial by
// TestParallelFoldBitIdentical, so this covers the full matrix.
func TestColumnarBitIdentical(t *testing.T) {
	type config struct {
		seed   uint64
		trials int
	}
	matrix := []config{{1, 40}, {7, 40}, {23, 40}}
	for _, trials := range columnarTrialTails {
		matrix = append(matrix, config{7, trials})
	}
	cats := map[uint64]*storage.Catalog{}
	for _, c := range matrix {
		if cats[c.seed] == nil {
			cats[c.seed] = columnarCatalog(3*8192, c.seed)
		}
		cat := cats[c.seed]
		opts := func(p int, rowPath bool) Options {
			o := columnarOptions(c.seed, p, rowPath)
			o.Trials = c.trials
			return o
		}
		for _, q := range columnarQueries {
			name := fmt.Sprintf("%s/seed=%d", q.name, c.seed)
			if c.trials != 40 {
				name += fmt.Sprintf("/trials=%d", c.trials)
			}
			t.Run(name, func(t *testing.T) {
				ref := runSnapshots(t, cat, q.sql, opts(1, true))
				for _, p := range []int{1, 2, 4, 8} {
					if q.reassoc && p > 1 {
						ref = runSnapshots(t, cat, q.sql, opts(p, true))
					}
					got := runSnapshots(t, cat, q.sql, opts(p, false))
					compareSnapshots(t, fmt.Sprintf("columnar P=%d", p), ref, got)
				}
			})
		}
	}
}

// TestColumnarSubsampleBitIdentical repeats the comparison with a
// bootstrap sample cap, exercising the subsample-membership gate and the
// direct float-weight generation (vs the uint8 round trip) under
// non-integral 1/p scaling. The row-path reference runs at the SAME
// parallelism: under a cap, replica folds scale by a non-integral 1/p,
// so serial and parallel runs legitimately reassociate differently (a
// pre-existing property of the parallel merge, independent of this
// path) — the columnar claim is bit-identity against the row path over
// the identical split into parts.
func TestColumnarSubsampleBitIdentical(t *testing.T) {
	cat := columnarCatalog(2*8192, 5)
	for _, trials := range append([]int{40}, columnarTrialTails...) {
		for _, q := range columnarQueries {
			name := q.name
			if trials != 40 {
				name += fmt.Sprintf("/trials=%d", trials)
			}
			t.Run(name, func(t *testing.T) {
				for _, p := range []int{1, 4} {
					opts := func(rowPath bool) Options {
						o := columnarOptions(5, p, rowPath)
						o.Trials = trials
						o.BootstrapSampleCap = 3000
						return o
					}
					compareSnapshots(t, fmt.Sprintf("capped P=%d", p),
						runSnapshots(t, cat, q.sql, opts(true)), runSnapshots(t, cat, q.sql, opts(false)))
				}
			})
		}
	}
}

// TestColumnarMultiSourceFold pins what the multi-source legs of
// columnarQueries put through the fold kernel: more than one source, a
// moment side of three or more streams holding groups in moment mode by
// the end of the run, and — for dims-fanout — a row folded twice in a
// row into the same entry.
func TestColumnarMultiSourceFold(t *testing.T) {
	cat := columnarCatalog(3*8192, 7)
	for _, q := range columnarQueries {
		switch q.name {
		case "const-source", "two-sources", "scalar-sources", "dims-fanout":
		default:
			continue
		}
		t.Run(q.name, func(t *testing.T) {
			_, eng := runEngine(t, cat, q.sql, columnarOptions(7, 1, false))
			r := eng.runners[len(eng.runners)-1]
			if v := r.colPl.verdict(); v != "columnar" || len(r.colPl.srcs) < 2 {
				t.Fatalf("verdict %q over %d sources, want columnar over several", v, len(r.colPl.srcs))
			}
			m := r.tab.mom
			if m == nil || len(m.streams) < 3 || len(m.order) == 0 {
				t.Fatal("no group folded into moments over three or more streams")
			}
			if q.name != "dims-fanout" {
				return
			}
			cs := &r.cs
			for k := 1; k < len(cs.pairRow); k++ {
				if cs.pairRow[k] == cs.pairRow[k-1] && cs.pairEnt[k] == cs.pairEnt[k-1] {
					return
				}
			}
			t.Fatal("no row fanned out twice into one entry")
		})
	}
}

// TestProfileRunsSameKernels: Options.Profile observes the kernels the
// untraced run executes. For every columnar query at P∈{1,2}, the
// profiled and unprofiled runs agree on each block's columnar verdict
// and segment-sweep count and produce bit-identical snapshots at every
// batch, and every columnar block gathers its runs into the run scratch
// (so the fold kernel ran) under Profile as well.
func TestProfileRunsSameKernels(t *testing.T) {
	cat := columnarCatalog(2*8192, 5)
	for _, q := range columnarQueries {
		t.Run(q.name, func(t *testing.T) {
			for _, p := range []int{1, 2} {
				plain, pe := runEngine(t, cat, q.sql, columnarOptions(5, p, false))
				o := columnarOptions(5, p, false)
				o.Profile = true
				profiled, ee := runEngine(t, cat, q.sql, o)
				compareSnapshots(t, fmt.Sprintf("Profile P=%d", p), plain, profiled)
				for i, r := range ee.runners {
					pr := pe.runners[i]
					if got, want := r.colPl.verdict(), pr.colPl.verdict(); got != want {
						t.Fatalf("P=%d block %d: verdict %q under Profile, %q without", p, r.b.ID, got, want)
					}
					sweeps, want := int64(0), int64(0)
					runs := false
					for _, st := range runnerStages(ee, r) {
						sweeps += st.cs.sweeps
						for _, run := range st.cs.runs {
							runs = runs || cap(run.keys) > 0
						}
					}
					for _, st := range runnerStages(pe, pr) {
						want += st.cs.sweeps
					}
					if sweeps != want {
						t.Fatalf("P=%d block %d: %d sweeps under Profile, %d without", p, r.b.ID, sweeps, want)
					}
					if r.colPl.ok && !runs {
						t.Fatalf("P=%d block %d: the fold kernel never gathered a run under Profile", p, r.b.ID)
					}
				}
			}
		})
	}
}

// runnerStages returns r's home stage and each pool worker's stage for r.
func runnerStages(e *Engine, r *blockRunner) []*stage {
	out := []*stage{&r.stage}
	if e.pool != nil {
		for _, wc := range e.pool.ctxs {
			if r.idx < len(wc.stages) && wc.stages[r.idx] != nil {
				out = append(out, wc.stages[r.idx])
			}
		}
	}
	return out
}

// TestColumnarPlanEligibility pins the fallback decisions: expression
// group keys, non-CLT aggregates and RowPath must all reject the plan,
// while the plain fold shape accepts it.
func TestColumnarPlanEligibility(t *testing.T) {
	cat := columnarCatalog(4000, 3)
	build := func(sql string, rowPath bool) *blockRunner {
		q, err := plan.Compile(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		o := WithSeams(Options{Batches: 2, Trials: 10, Seed: 3, Parallelism: 1}, Seams{RowPath: rowPath})
		eng, err := New(q, cat, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng.runners[len(eng.runners)-1]
	}
	verdict := func(sql string, rowPath bool) string {
		return build(sql, rowPath).colPl.verdict()
	}
	// The verdict strings are API: Metrics/Report and the EvColPlan trace
	// event surface them verbatim, so pin them exactly.
	for _, tc := range []struct {
		sql     string
		rowPath bool
		want    string
	}{
		{`SELECT a, SUM(x) FROM facts GROUP BY a`, false, "columnar"},
		{`SELECT a, b, SUM(x), COUNT(s) FROM facts GROUP BY a, b`, false, "columnar"},
		{`SELECT a, SUM(x) FROM facts GROUP BY a`, true, "rowpath:forced"},
		{`SELECT b + 1, SUM(x) FROM facts GROUP BY b + 1`, false, "rowpath:group:expr-key"},
		{`SELECT a, MIN(x) FROM facts GROUP BY a`, false, "rowpath:agg:not-estimable"},
		{`SELECT a, SUM(x + 1) FROM facts GROUP BY a`, false, "columnar"},
		{`SELECT a, SUM(x * b), AVG(x * b) FROM facts GROUP BY a`, false, "columnar"},
		{`SELECT a, SUM(x), SUM(x * b) FROM facts GROUP BY a`, false, "columnar"},
		{`SELECT SUM(x * b), AVG(x * b) FROM facts`, false, "columnar"},
		{`SELECT COUNT(x) FROM facts WHERE s LIKE 'a%'`, false, "columnar"},
		{`SELECT a, SUM(CASE WHEN b > 3 THEN x ELSE 0 END) FROM facts GROUP BY a`,
			false, "rowpath:agg:expr-arg"},
		{`SELECT cat, SUM(x + bkey) FROM facts f JOIN bdim d ON f.b = d.bkey GROUP BY cat`,
			false, "rowpath:agg:dim-column"},
		{`SELECT cat, SUM(x * b) FROM facts f JOIN bdim d ON f.b = d.bkey GROUP BY cat`,
			false, "columnar"},
		{`SELECT cat, SUM(x) FROM facts f JOIN bdim d ON f.b = d.bkey GROUP BY cat`,
			false, "columnar"},
		{`SELECT region, cat, SUM(x) FROM facts f
			JOIN bdim d ON f.b = d.bkey
			JOIN adim e ON f.a = e.akey GROUP BY region, cat`,
			false, "columnar"},
		{`SELECT cat, SUM(x) FROM facts f JOIN bdim d ON f.b + 1 = d.bkey GROUP BY cat`,
			false, "rowpath:join:expr-key"},
		{`SELECT cat, SUM(bkey) FROM facts f JOIN bdim d ON f.b = d.bkey GROUP BY cat`,
			false, "rowpath:agg:dim-column"},
	} {
		if got := verdict(tc.sql, tc.rowPath); got != tc.want {
			t.Errorf("verdict(%q) = %q, want %q", tc.sql, got, tc.want)
		}
	}
	// Two aggregates over one expression share one computed column and,
	// through the bank aliases, one W and one V stream.
	p := build(`SELECT a, SUM(x * b), AVG(x * b), COUNT(b * x) FROM facts GROUP BY a`, false).colPl
	if len(p.exprs) != 2 || p.aggCols[0] != p.aggCols[1] || p.aggCols[2] == p.aggCols[0] {
		t.Fatalf("computed columns %v over %d expressions, want x*b shared and b*x apart", p.aggCols, len(p.exprs))
	}
	if p.aliasW[1] != 0 || p.aliasV[1] != 0 || p.aliasW[2] != 2 {
		t.Fatalf("aliases W=%v V=%v, want SUM and AVG on one stream", p.aliasW, p.aliasV)
	}
}

// TestColumnarDimsFoldAllocs pins the dims-grouped columnar sweep to
// zero steady-state allocations: once the join memo has seen every
// distinct fact key combination, re-feeding the same rows resolves
// groups entirely through the word-code memos.
func TestColumnarDimsFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cat := columnarCatalog(20000, 71)
	for _, tc := range []struct {
		name string
		sql  string
	}{
		{"dim-key", `SELECT cat, SUM(x), AVG(x) FROM facts f
			JOIN bdim d ON f.b = d.bkey GROUP BY cat`},
		{"mixed-keys", `SELECT a, cat, SUM(x), AVG(x) FROM facts f
			JOIN bdim d ON f.b = d.bkey GROUP BY a, cat`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := plan.Compile(tc.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(q, cat, Options{Batches: 10, Trials: 100, Seed: 72, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			r := eng.runners[len(eng.runners)-1]
			if got := r.colPl.verdict(); got != "columnar" {
				t.Fatalf("plan verdict = %q, want columnar", got)
			}
			ts := eng.tables["facts"]
			te := eng.triEnv()
			rows := ts.batches[1]
			base := ts.starts[1]
			const chunk = 512
			// Warm the full batch so the join memo holds every key combo
			// the alloc loop can encounter.
			r.feedBatchSerial(rows, base, te)
			sweeps := r.cs.sweeps
			if sweeps == 0 {
				t.Fatal("columnar dims path did not engage")
			}
			off := 0
			allocs := testing.AllocsPerRun(40, func() {
				if off+chunk > len(rows) {
					off = 0
				}
				r.feedBatchSerial(rows[off:off+chunk], base+off, te)
				off += chunk
			})
			if allocs != 0 {
				t.Fatalf("dims columnar fold allocates %.1f allocs/chunk, want 0", allocs)
			}
			if r.cs.sweeps == sweeps {
				t.Fatal("alloc loop never swept a segment")
			}
		})
	}
}

// columnarBenchEnv builds a warmed engine over the fold catalog and
// returns the pieces to drive feedBatchSerial by hand over aligned
// chunks of the second mini-batch.
func columnarBenchEnv(tb testing.TB, multiKey, sampledAll, profile bool) (*Engine, *blockRunner, *tableStream, *triEnv) {
	sql := columnarSingleKeySQL
	if multiKey {
		sql = columnarMultiKeySQL
	}
	return columnarBenchEnvSQL(tb, sql, sampledAll, profile)
}

// The fold shapes the alloc gate and the fold benchmarks drive; the
// expression shape folds two aggregates over one computed column (the
// kernel reading a NumKernel bank).
const (
	columnarSingleKeySQL = `SELECT a, SUM(x), AVG(x) FROM facts GROUP BY a`
	columnarMultiKeySQL  = `SELECT a, b, SUM(x), AVG(x) FROM facts GROUP BY a, b`
	columnarExprSQL      = `SELECT a, SUM(x * b), AVG(x * b) FROM facts GROUP BY a`
	// The multi-source shape (the C3/Q20 root: a constant source beside a
	// column) and a dims block.
	columnarMultiSourceSQL = `SELECT a, COUNT(*), AVG(x) FROM facts GROUP BY a`
	columnarDimsSQL        = `SELECT cat, SUM(x), AVG(x) FROM facts f JOIN bdim d ON f.b = d.bkey GROUP BY cat`
	// The keyed tri-state shapes: a Q17-style per-key correlated
	// threshold and a Q18-style membership.
	columnarCorrelatedSQL = `SELECT SUM(x) FROM facts f
		WHERE x < (SELECT 0.5 * AVG(x) FROM facts i WHERE i.b = f.b)`
	columnarMembershipSQL = `SELECT a, SUM(x), AVG(x) FROM facts
		WHERE b IN (SELECT b FROM facts GROUP BY b HAVING AVG(x) > 49.5) GROUP BY a`
)

func columnarBenchEnvSQL(tb testing.TB, sql string, sampledAll, profile bool) (*Engine, *blockRunner, *tableStream, *triEnv) {
	cat := foldCatalog(20000, 71)
	q, err := plan.Compile(sql, cat)
	if err != nil {
		tb.Fatal(err)
	}
	opt := Options{Batches: 10, Trials: 100, Seed: 72, Parallelism: 1}
	if sampledAll {
		opt.BootstrapSampleCap = -1
	}
	opt.Profile = profile
	eng, err := New(q, cat, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		tb.Fatal(err)
	}
	r := eng.runners[len(eng.runners)-1]
	if !r.colPl.ok {
		tb.Fatal("bench query must be columnar-eligible")
	}
	return eng, r, eng.tables["facts"], eng.triEnv()
}

// TestColumnarFoldAllocs pins the steady-state columnar fold to zero
// allocations per chunk (and therefore per tuple) after warmup, plain
// and with Profile (event ring and span timeline attached), for both
// subsample modes, for a computed argument and for the keyed tri-state
// shapes (each chunk a new epoch that re-resolves its keys; the chunk's
// cached uncertain rows are dropped between chunks, as the fold
// benchmarks do). It also asserts the columnar path actually engaged
// (segment sweeps advanced, the tri kernel compiled) and that the
// always-on phase profile recorded fold time. The reclassify legs hold
// re-examining a warm uncertain cache by kernel to zero allocations, the
// prepare legs rebuilding a warm snapshot evaluator's bucket index (the
// point pass by kernel included) over it.
func TestColumnarFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name       string
		sql        string
		sampledAll bool
	}{
		{"single-key", columnarSingleKeySQL, false},
		{"single-key/sampled-all", columnarSingleKeySQL, true},
		{"multi-key/sampled-all", columnarMultiKeySQL, true},
		{"expr-arg/sampled-all", columnarExprSQL, true},
		{"multi-source/sampled-all", columnarMultiSourceSQL, true},
		{"dims/sampled-all", columnarDimsSQL, true},
		{"correlated", columnarCorrelatedSQL, false},
		{"in-set", columnarMembershipSQL, false},
	} {
		for _, cfg := range []struct {
			name    string
			profile bool
		}{
			{"plain", false},
			{"profiled", true},
		} {
			t.Run(tc.name+"/"+cfg.name, func(t *testing.T) {
				_, r, ts, te := columnarBenchEnvSQL(t, tc.sql, tc.sampledAll, cfg.profile)
				if tc.sql == columnarExprSQL && (r.colPl.verdict() != "columnar" || len(r.colPl.exprs) != 1) {
					t.Fatalf("verdict %q over %d computed columns, want columnar over 1",
						r.colPl.verdict(), len(r.colPl.exprs))
				}
				rows := ts.batches[1]
				base := ts.starts[1]
				const chunk = 512
				// Warm up: sizes scratch, kernel, memo, group entries.
				r.feedBatchSerial(rows[:chunk], base, te)
				sweeps := r.cs.sweeps
				if sweeps == 0 {
					t.Fatal("columnar path did not engage")
				}
				off := 0
				allocs := testing.AllocsPerRun(40, func() {
					if off+chunk > len(rows) {
						off = 0
					}
					r.feedBatchSerial(rows[off:off+chunk], base+off, te)
					off += chunk
					r.uncertain = r.uncertain[:0]
				})
				if allocs != 0 {
					t.Fatalf("columnar fold allocates %.1f allocs/chunk, want 0", allocs)
				}
				if r.cs.sweeps == sweeps {
					t.Fatal("alloc loop never swept a segment")
				}
				if r.acc.ns[phaseFold] == 0 {
					t.Fatal("run recorded no fold time")
				}
				if r.uncertainWhere != nil && r.cs.triK == nil {
					t.Fatal("uncertain predicate did not compile to the tri kernel")
				}
			})
		}
	}
	for _, tc := range []struct{ name, sql string }{
		{"correlated", columnarCorrelatedSQL},
		{"in-set", columnarMembershipSQL},
	} {
		t.Run("reclassify/"+tc.name, func(t *testing.T) {
			eng, r, _, _ := columnarBenchEnvSQL(t, tc.sql, false, false)
			defer eng.Close()
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			te := eng.triEnv()
			r.reclassify(te) // the bindings' first pass folds or drops what it can
			n := len(r.uncertain)
			if n == 0 {
				t.Fatal("no cached uncertain rows to re-examine")
			}
			before := r.cs.reclassified
			allocs := testing.AllocsPerRun(40, func() { r.reclassify(te) })
			if allocs != 0 {
				t.Fatalf("reclassify allocates %.1f allocs over %d cached rows, want 0", allocs, n)
			}
			if len(r.uncertain) != n {
				t.Fatalf("steady-state reclassify moved %d rows", n-len(r.uncertain))
			}
			if r.cs.reclassified == before {
				t.Fatal("reclassify never ran the kernel")
			}
		})
		t.Run("prepare/"+tc.name, func(t *testing.T) {
			eng, r, _, _ := columnarBenchEnvSQL(t, tc.sql, false, false)
			defer eng.Close()
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			n := len(r.uncertain)
			if n == 0 {
				t.Fatal("no cached uncertain rows to evaluate")
			}
			ev := r.eval() // warm: programs lowered, scratch and key memos sized
			before := r.cs.pointed
			allocs := testing.AllocsPerRun(40, func() {
				ev.valid = false
				ev.prepare()
			})
			if allocs != 0 {
				t.Fatalf("snapshot prepare allocates %.1f allocs over %d cached rows, want 0", allocs, n)
			}
			if r.cs.pointed == before {
				t.Fatal("the point pass never ran the kernel")
			}
		})
	}
}

// benchFoldColumnar measures the columnar fold in ns/row by feeding
// aligned chunks through feedBatchSerial.
func benchFoldColumnar(b *testing.B, multiKey, sampledAll bool) {
	_, r, ts, te := columnarBenchEnv(b, multiKey, sampledAll, false)
	benchFeedChunks(b, r, ts, te)
}

func benchFeedChunks(b *testing.B, r *blockRunner, ts *tableStream, te *triEnv) {
	rows := ts.batches[1]
	base := ts.starts[1]
	const chunk = 512
	r.feedBatchSerial(rows[:chunk], base, te)
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for n := 0; n < b.N; n += chunk {
		if off+chunk > len(rows) {
			off = 0
		}
		r.feedBatchSerial(rows[off:off+chunk], base+off, te)
		off += chunk
		// Re-fed rows would pile up in the uncertain cache: drop them.
		r.uncertain = r.uncertain[:0]
	}
}

// benchFoldScalar measures the SBI-shaped columnar fold — one group, an AVG
// over the full bootstrap (T = 100) — in ns/row, its group already past
// momentMin: each chunk is one feed, through real Poisson lanes, or
// (moments) into batch moments with the closing draw.
func benchFoldScalar(b *testing.B, moments bool) {
	_, r, ts, te := columnarBenchEnvSQL(b, `SELECT AVG(x) FROM facts`, true, false)
	if r.colPl.verdict() != "columnar" || r.tab.entries[0].ns < momentMin {
		b.Fatal("bench query must fold one group past momentMin through the columnar kernel")
	}
	rows, base := ts.batches[1], ts.starts[1]
	const chunk = 512
	feed := func(off int) {
		if moments {
			r.beginMoments()
		}
		r.feedBatchSerial(rows[off:off+chunk], base+off, te)
		if moments {
			r.drawMoments(1)
		}
	}
	feed(0)
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for n := 0; n < b.N; n += chunk {
		if off+chunk > len(rows) {
			off = 0
		}
		feed(off)
		off += chunk
	}
}

func BenchmarkFoldColumnarScalarLanes(b *testing.B)   { benchFoldScalar(b, false) }
func BenchmarkFoldColumnarScalarMoments(b *testing.B) { benchFoldScalar(b, true) }

func BenchmarkFoldColumnarSingleKey(b *testing.B)        { benchFoldColumnar(b, false, false) }
func BenchmarkFoldColumnarSingleKeySampled(b *testing.B) { benchFoldColumnar(b, false, true) }
func BenchmarkFoldColumnarMultiKey(b *testing.B)         { benchFoldColumnar(b, true, false) }
func BenchmarkFoldColumnarMultiKeySampled(b *testing.B)  { benchFoldColumnar(b, true, true) }

// BenchmarkFoldColumnarExpr folds SUM/AVG(x * b) through the computed-
// column kernel (compare BenchmarkFoldColumnarSingleKey for its cost).
func BenchmarkFoldColumnarExpr(b *testing.B) {
	_, r, ts, te := columnarBenchEnvSQL(b, columnarExprSQL, false, false)
	benchFeedChunks(b, r, ts, te)
}

// BenchmarkFoldColumnarMultiSource folds COUNT(*), AVG(x) GROUP BY a:
// two sources, a constant beside a column.
func BenchmarkFoldColumnarMultiSource(b *testing.B) { benchFoldSwept(b, columnarMultiSourceSQL) }

// BenchmarkFoldColumnarDims folds SUM/AVG(x) of a dims block grouped by
// a dim column, in ns per fact row.
func BenchmarkFoldColumnarDims(b *testing.B) { benchFoldSwept(b, columnarDimsSQL) }

// benchFoldSwept is benchFeedChunks over sql that fails unless the
// measured feeds swept segments through the columnar path.
func benchFoldSwept(b *testing.B, sql string) {
	_, r, ts, te := columnarBenchEnvSQL(b, sql, false, false)
	sweeps := r.cs.sweeps
	benchFeedChunks(b, r, ts, te)
	if !r.colPl.ok || r.cs.sweeps == sweeps {
		b.Fatalf("verdict %q: the columnar sweep did not run", r.colPl.verdict())
	}
}

// BenchmarkFoldColumnarCorrelated sweeps a Q17-shaped root block: the
// per-group correlated threshold classifies through the tri-state
// kernel's keyed slot (one resolution per key per chunk), certainly-in
// rows fold and uncertain rows are cached with weights.
func BenchmarkFoldColumnarCorrelated(b *testing.B) {
	_, r, ts, te := columnarBenchEnvSQL(b, columnarCorrelatedSQL, false, false)
	if r.uncertainWhere == nil || !r.colPl.ok {
		b.Fatal("bench query must sweep columnar with an uncertain predicate")
	}
	benchFeedChunks(b, r, ts, te)
	if r.cs.triK == nil {
		b.Fatal("correlated predicate did not compile to a tri kernel")
	}
}

// benchReclassify measures re-examining a warm uncertain cache in ns
// per cached row: each op is one reclassify pass whose bindings leave
// every row uncertain, the steady state between range commits.
func benchReclassify(b *testing.B, sql string) {
	eng, r, _, _ := columnarBenchEnvSQL(b, sql, false, false)
	defer eng.Close()
	if _, err := eng.Step(); err != nil {
		b.Fatal(err)
	}
	te := eng.triEnv()
	r.reclassify(te)
	n := len(r.uncertain)
	if n == 0 {
		b.Fatal("no cached uncertain rows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		r.reclassify(te)
	}
}

func BenchmarkReclassifyCorrelated(b *testing.B) { benchReclassify(b, columnarCorrelatedSQL) }
func BenchmarkReclassifyMembership(b *testing.B) { benchReclassify(b, columnarMembershipSQL) }

// benchUpdateBinding measures republishing a warm parameter block's
// binding — estimates, ranges, tri-state membership and committed
// checks — in ns per group: each op is one updateBinding over every
// visible group of the query's correlated or membership block.
func benchUpdateBinding(b *testing.B, sql string) {
	eng, _, _, _ := columnarBenchEnvSQL(b, sql, false, false)
	defer eng.Close()
	if _, err := eng.Step(); err != nil {
		b.Fatal(err)
	}
	r := paramRunner(b, eng)
	n := r.eval().numVisible()
	eng.updateBinding(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		eng.updateBinding(r)
	}
}

func BenchmarkUpdateBindingCorrelated(b *testing.B) { benchUpdateBinding(b, columnarCorrelatedSQL) }
func BenchmarkUpdateBindingMembership(b *testing.B) { benchUpdateBinding(b, columnarMembershipSQL) }

// benchSnapshotPrepare measures rebuilding a warm snapshot evaluator's
// bucket index — the point pass over the cached set and its group sort —
// in ns per cached row, on the cache benchReclassify re-examines.
func benchSnapshotPrepare(b *testing.B, sql string) {
	eng, r, _, _ := columnarBenchEnvSQL(b, sql, false, false)
	defer eng.Close()
	if _, err := eng.Step(); err != nil {
		b.Fatal(err)
	}
	n := len(r.uncertain)
	if n == 0 {
		b.Fatal("no cached uncertain rows")
	}
	ev := r.eval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		ev.valid = false
		ev.prepare()
	}
}

func BenchmarkSnapshotPrepareCorrelated(b *testing.B) { benchSnapshotPrepare(b, columnarCorrelatedSQL) }
func BenchmarkSnapshotPrepareMembership(b *testing.B) { benchSnapshotPrepare(b, columnarMembershipSQL) }

// BenchmarkClassifyColumnar measures the vectorized predicate kernel in
// ns/row over whole segments (the WHERE of a typical filtered fold).
func BenchmarkClassifyColumnar(b *testing.B) {
	cat := foldCatalog(20000, 71)
	sql := `SELECT COUNT(x) FROM facts WHERE x < 50.0 AND b >= 4`
	q, err := plan.Compile(sql, cat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 10, Trials: 20, Seed: 72, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	r := eng.runners[len(eng.runners)-1]
	tbl, _ := eng.cat.Get("facts")
	ct := tbl.Columnar()
	k := expr.CompileKernel(r.certainWhere, ct)
	if k == nil {
		b.Fatal("bench WHERE must compile")
	}
	out := make([]uint8, ct.SegSize)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		for _, seg := range ct.Segs {
			k.EvalInto(out, seg, 0, seg.N)
			n += seg.N
			if n >= b.N {
				break
			}
		}
	}
}

// TestColumnarInterpretedClassifier pins which classifier decides each
// uncertain shape of columnarQueries under the columnar sweep, so the
// bit-identity matrix above covers both against the row loop: the
// correlated and IN-set predicates compile to the tri-state kernel's
// keyed slots, which classify new rows and — at their ordinals — the
// cached set in reclassify and in the snapshot point pass; the
// two-column correlation refuses the kernel, so the interpreter
// classifies both and rowTri decides the point pass. Each shape really
// caches uncertain rows.
func TestColumnarInterpretedClassifier(t *testing.T) {
	cat := columnarCatalog(3*8192, 7)
	kernel := map[string]bool{"correlated": true, "in-set": true, "correlated-2key": false}
	for _, q := range columnarQueries {
		useKernel, ok := kernel[q.name]
		if !ok {
			continue
		}
		t.Run(q.name, func(t *testing.T) {
			pq, err := plan.Compile(q.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(pq, cat, columnarOptions(7, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			r := eng.runners[len(eng.runners)-1]
			if r.b != eng.q.Root {
				t.Fatal("last runner is not the root block")
			}
			cached := 0
			for {
				if _, err := eng.Step(); err == ErrDone {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				cached += len(r.uncertain)
			}
			if got := r.colPl.verdict(); !strings.HasPrefix(got, "columnar") {
				t.Fatalf("root verdict = %q, want columnar*", got)
			}
			if r.cs.sweeps == 0 {
				t.Fatal("root block never swept a segment")
			}
			if cached == 0 {
				t.Fatal("the root block never cached an uncertain row")
			}
			want := "tri:interp"
			if useKernel {
				want = "tri:kernel"
			}
			if got := r.classifier(); got != want {
				t.Fatalf("classifier = %q, want %q", got, want)
			}
			if useKernel != (r.cs.triK != nil) {
				t.Fatalf("tri kernel compiled = %v, want %v", r.cs.triK != nil, useKernel)
			}
			if useKernel != (r.cs.reclassified > 0) {
				t.Fatalf("reclassify re-examined %d cached rows by kernel, want kernel use %v",
					r.cs.reclassified, useKernel)
			}
			if useKernel != (r.cs.pointed > 0) {
				t.Fatalf("the snapshot point pass ran %d cached rows through the kernel, want kernel use %v",
					r.cs.pointed, useKernel)
			}
		})
	}
}

// TestSuiteColumnarVerdicts pins the columnar verdict and the uncertain
// predicate's classifier of every block of the paper's evaluation suite
// (block order as Metrics().Blocks lists it: subqueries first, root
// last), so a change that silently sends a suite block back to the row
// path, or a suite root back to the interpreter, fails here. C1's FLOOR(...)
// group key and C2's STDDEV threshold are the shapes still outside.
func TestSuiteColumnarVerdicts(t *testing.T) {
	want := map[string][]string{
		"SBI": {"columnar", "columnar"},
		"C1":  {"columnar", "rowpath:group:expr-key"},
		"C2":  {"rowpath:agg:not-estimable", "columnar"},
		"C3":  {"columnar", "columnar"},
		"Q11": {"columnar", "columnar"},
		"Q17": {"columnar", "columnar"},
		"Q18": {"columnar", "columnar"},
		"Q20": {"columnar", "columnar"},
	}
	// The classifier of each block's uncertain predicate: the roots whose
	// nested parameter is scalar (SBI, C2, C3), correlated (Q17, Q20) or
	// a membership (Q18) run the tri-state kernel; C1's row-path root
	// interprets; Q11's only uncertain predicate is a HAVING.
	wantTri := map[string][]string{
		"SBI": {"", "tri:kernel"},
		"C1":  {"", "tri:interp"},
		"C2":  {"", "tri:kernel"},
		"C3":  {"", "tri:kernel"},
		"Q11": {"", ""},
		"Q17": {"", "tri:kernel"},
		"Q18": {"", "tri:kernel"},
		"Q20": {"", "tri:kernel"},
	}
	cats := map[string]*storage.Catalog{
		"conviva": workload.ConvivaCatalog(2000, 1),
		"tpch":    workload.TPCHCatalog(3000, 40, 1),
	}
	for _, q := range workload.Suite() {
		pq, err := plan.Compile(q.SQL, cats[q.Dataset])
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(pq, cats[q.Dataset], Options{Batches: 2, Trials: 10, Seed: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got, gotTri []string
		for _, bp := range eng.Metrics().Blocks {
			got = append(got, bp.Columnar)
			gotTri = append(gotTri, bp.Classifier)
		}
		eng.Close()
		if fmt.Sprint(got) != fmt.Sprint(want[q.Name]) {
			t.Errorf("%s: block verdicts %q, want %q", q.Name, got, want[q.Name])
		}
		if fmt.Sprintf("%q", gotTri) != fmt.Sprintf("%q", wantTri[q.Name]) {
			t.Errorf("%s: block classifiers %q, want %q", q.Name, gotTri, wantTri[q.Name])
		}
	}
}

// TestSuiteSnapshotPointKernel pins that the snapshot point pass of the
// suite roots with a compiled uncertain predicate — scalar (SBI),
// correlated (Q17, Q20) and membership (Q18) — decides the cached set by
// the tri-state kernel, not by rowTri.
func TestSuiteSnapshotPointKernel(t *testing.T) {
	cats := map[string]*storage.Catalog{
		"conviva": workload.ConvivaCatalog(2000, 1),
		"tpch":    workload.TPCHCatalog(3000, 40, 1),
	}
	for _, name := range []string{"SBI", "Q17", "Q18", "Q20"} {
		q, _ := workload.ByName(name)
		pq, err := plan.Compile(q.SQL, cats[q.Dataset])
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(pq, cats[q.Dataset], Options{Batches: 4, Trials: 10, Seed: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		root := eng.runners[len(eng.runners)-1]
		if _, err := eng.Run(nil); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if root.cs.pointed == 0 {
			t.Errorf("%s: the root's snapshot point pass never ran the kernel", name)
		}
	}
}
