package core

import (
	"fmt"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/expr"
	"fluodb/internal/sqlparser"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

func col(i int) expr.Expr { return &expr.Col{Idx: i, Name: "c", Typ: types.KindFloat} }
func cnum(f float64) expr.Expr {
	return &expr.Const{V: types.NewFloat(f)}
}
func binop(op sqlparser.BinaryOp, l, r expr.Expr) expr.Expr {
	return &expr.Binary{Op: op, L: l, R: r}
}

// env builds a triEnv with one scalar param range.
func env(lo, hi float64) *triEnv {
	return &triEnv{
		pointCtx:     &expr.Ctx{Scalars: []types.Value{types.NewFloat((lo + hi) / 2)}},
		scalarRanges: []paramRange{okRange(bootstrap.Range{Lo: lo, Hi: hi})},
	}
}

func param() expr.Expr {
	return &expr.ScalarParam{Idx: 0, Typ: types.KindFloat, Desc: "p"}
}

func TestEvalTriComparisons(t *testing.T) {
	te := env(10, 20) // $0 ∈ [10,20]
	row := types.Row{types.NewFloat(0)}
	set := func(v float64) types.Row { return types.Row{types.NewFloat(v)} }
	_ = row
	cases := []struct {
		op   sqlparser.BinaryOp
		x    float64 // col > param etc.
		want tri
	}{
		{sqlparser.OpGt, 25, triTrue},     // 25 > [10,20] always
		{sqlparser.OpGt, 5, triFalse},     // 5 > [10,20] never
		{sqlparser.OpGt, 15, triUnknown},  // inside the range
		{sqlparser.OpGt, 10, triFalse},    // 10 > [10,20]: never (x ≤ lo)
		{sqlparser.OpGe, 20, triTrue},     // 20 ≥ [10,20]: always (x ≥ hi)
		{sqlparser.OpGe, 9.9, triFalse},   // below
		{sqlparser.OpLt, 5, triTrue},      // 5 < [10,20] always
		{sqlparser.OpLt, 20, triUnknown},  // 20 < [10,20]: only if param = 20... never! see below
		{sqlparser.OpLe, 10, triTrue},     // 10 ≤ [10,20] always
		{sqlparser.OpEq, 25, triFalse},    // disjoint
		{sqlparser.OpEq, 15, triUnknown},  // overlapping
		{sqlparser.OpNe, 25, triTrue},     // disjoint → always ≠
		{sqlparser.OpNe, 15, triUnknown},  // overlapping
		{sqlparser.OpLt, 9.99, triTrue},   // strictly below
		{sqlparser.OpLt, 20.01, triFalse}, // strictly above hi → x < p never
	}
	for _, c := range cases {
		e := binop(c.op, col(0), param())
		got := te.evalTri(e, set(c.x))
		// Note on {OpLt, 20}: 20 < p requires p > 20, impossible in
		// [10,20] — a sharper implementation would say triFalse; ours
		// conservatively says... verify what it says and accept either
		// correct-or-conservative (never a WRONG det answer).
		if c.op == sqlparser.OpLt && c.x == 20 {
			if got == triTrue {
				t.Errorf("20 < [10,20] must not be det-true")
			}
			continue
		}
		if got != c.want {
			t.Errorf("%v %s param[10,20] = %v, want %v", c.x, c.op, got, c.want)
		}
	}
}

func TestEvalTriNullOperandIsFalse(t *testing.T) {
	te := env(10, 20)
	e := binop(sqlparser.OpGt, col(0), param())
	if got := te.evalTri(e, types.Row{types.Null}); got != triFalse {
		t.Errorf("NULL > param = %v, want det-false (SQL semantics)", got)
	}
}

func TestEvalTriKleene(t *testing.T) {
	te := env(10, 20)
	inside := binop(sqlparser.OpGt, cnum(15), param())  // unknown
	alwaysT := binop(sqlparser.OpGt, cnum(25), param()) // true
	alwaysF := binop(sqlparser.OpGt, cnum(5), param())  // false
	and := func(l, r expr.Expr) expr.Expr { return binop(sqlparser.OpAnd, l, r) }
	or := func(l, r expr.Expr) expr.Expr { return binop(sqlparser.OpOr, l, r) }

	if got := te.evalTri(and(alwaysF, inside), nil); got != triFalse {
		t.Errorf("F AND U = %v", got)
	}
	if got := te.evalTri(and(alwaysT, inside), nil); got != triUnknown {
		t.Errorf("T AND U = %v", got)
	}
	if got := te.evalTri(or(alwaysT, inside), nil); got != triTrue {
		t.Errorf("T OR U = %v", got)
	}
	if got := te.evalTri(or(alwaysF, inside), nil); got != triUnknown {
		t.Errorf("F OR U = %v", got)
	}
	not := &expr.Not{X: inside}
	if got := te.evalTri(not, nil); got != triUnknown {
		t.Errorf("NOT U = %v", got)
	}
	notT := &expr.Not{X: alwaysT}
	if got := te.evalTri(notT, nil); got != triFalse {
		t.Errorf("NOT T = %v", got)
	}
}

func TestIntervalArithmetic(t *testing.T) {
	te := env(10, 20)
	check := func(e expr.Expr, lo, hi float64) {
		t.Helper()
		pr := te.evalRange(e, nil)
		if pr.status != rsOK {
			t.Fatalf("%s: status %v", e, pr.status)
		}
		if pr.r.Lo != lo || pr.r.Hi != hi {
			t.Errorf("%s: [%g,%g], want [%g,%g]", e, pr.r.Lo, pr.r.Hi, lo, hi)
		}
	}
	check(binop(sqlparser.OpAdd, param(), cnum(5)), 15, 25)
	check(binop(sqlparser.OpSub, cnum(100), param()), 80, 90)
	check(binop(sqlparser.OpMul, cnum(2), param()), 20, 40)
	check(binop(sqlparser.OpMul, cnum(-1), param()), -20, -10)
	check(binop(sqlparser.OpDiv, param(), cnum(2)), 5, 10)
	check(&expr.Neg{X: param()}, -20, -10)
	// 1/param with param spanning... [10,20] doesn't span 0:
	check(binop(sqlparser.OpDiv, cnum(40), param()), 2, 4)
}

func TestIntervalDivByRangeSpanningZero(t *testing.T) {
	te := env(-1, 1)
	pr := te.evalRange(binop(sqlparser.OpDiv, cnum(1), param()), nil)
	if pr.status != rsUnknown {
		t.Errorf("1/[-1,1] should be unknown, got %+v", pr)
	}
}

func TestUnsupportedExprIsConservative(t *testing.T) {
	te := env(10, 20)
	// SQRT(param): no interval rule → unknown, never a wrong answer
	fn, _ := expr.LookupFunc("SQRT")
	call, _ := expr.NewCall(fn, []expr.Expr{param()})
	if pr := te.evalRange(call, nil); pr.status != rsUnknown {
		t.Errorf("SQRT(param) range = %+v, want unknown", pr)
	}
	cmp := binop(sqlparser.OpGt, cnum(100), call)
	if got := te.evalTri(cmp, nil); got != triUnknown {
		t.Errorf("comparison with opaque range = %v, want unknown", got)
	}
}

func TestRowRangesClassifyHaving(t *testing.T) {
	// HAVING SUM(q) > 300 with the group's SUM range as a row range.
	having := binop(sqlparser.OpGt, col(1), cnum(300))
	te := &triEnv{pointCtx: &expr.Ctx{}}
	post := types.Row{types.NewInt(7), types.NewFloat(400)}

	te.rowRanges = []paramRange{okRange(bootstrap.Point(7)), okRange(bootstrap.Range{Lo: 350, Hi: 450})}
	if got := te.evalTri(having, post); got != triTrue {
		t.Errorf("range fully above threshold = %v", got)
	}
	te.rowRanges[1] = okRange(bootstrap.Range{Lo: 100, Hi: 200})
	if got := te.evalTri(having, post); got != triFalse {
		t.Errorf("range fully below threshold = %v", got)
	}
	te.rowRanges[1] = okRange(bootstrap.Range{Lo: 250, Hi: 350})
	if got := te.evalTri(having, post); got != triUnknown {
		t.Errorf("straddling range = %v", got)
	}
	// Without row ranges the same predicate evaluates exactly.
	te.rowRanges = nil
	if got := te.evalTri(having, post); got != triTrue {
		t.Errorf("pointwise having = %v", got)
	}
}

func TestSetTriMembership(t *testing.T) {
	te := &triEnv{
		pointCtx: &expr.Ctx{},
		setTri: []func(types.Row) tri{func(key types.Row) tri {
			switch keyString(key) {
			case types.KeyString1(types.NewInt(1)):
				return triTrue
			case types.KeyString1(types.NewInt(2)):
				return triFalse
			default:
				return triUnknown
			}
		}},
	}
	sp := &expr.SetParam{Idx: 0, X: col(0)}
	if got := te.evalTri(sp, types.Row{types.NewInt(1)}); got != triTrue {
		t.Errorf("member = %v", got)
	}
	if got := te.evalTri(sp, types.Row{types.NewInt(2)}); got != triFalse {
		t.Errorf("non-member = %v", got)
	}
	if got := te.evalTri(sp, types.Row{types.NewInt(3)}); got != triUnknown {
		t.Errorf("unknown member = %v", got)
	}
	neg := &expr.SetParam{Idx: 0, X: col(0), Negated: true}
	if got := te.evalTri(neg, types.Row{types.NewInt(2)}); got != triTrue {
		t.Errorf("NOT IN non-member = %v", got)
	}
	if got := te.evalTri(sp, types.Row{types.Null}); got != triFalse {
		t.Errorf("NULL IN set = %v", got)
	}
}

func TestGroupRangeLookupStatuses(t *testing.T) {
	g := &groupBinding{}
	k1, nope := types.NewString("k1"), types.NewString("nope")
	g.publishKey(k1, types.NewFloat(1.5), okRange(bootstrap.Range{Lo: 1, Hi: 2}))
	b := &bindings{groups: []*groupBinding{g}}
	te := b.newTriEnv()
	if pr := te.groupRanges[0](types.Row{k1}); pr.status != rsOK {
		t.Error("known group")
	}
	if pr := te.groupRanges[0](types.Row{nope}); pr.status != rsUnknown {
		t.Error("unknown group on incomplete table must be unknown")
	}
	g.complete = true
	if pr := te.groupRanges[0](types.Row{nope}); pr.status != rsNull {
		t.Error("missing group on complete table is NULL")
	}
}

func TestEscapesPointOnly(t *testing.T) {
	committed := bootstrap.Range{Lo: 10, Hi: 20}
	if escapes(committed, types.NewFloat(15)) {
		t.Error("inside point should not escape")
	}
	if !escapes(committed, types.NewFloat(25)) {
		t.Error("outside point must escape")
	}
	if escapes(committed, types.Null) {
		t.Error("NULL never escapes")
	}
}

func TestIntersect(t *testing.T) {
	a := bootstrap.Range{Lo: 0, Hi: 10}
	b := bootstrap.Range{Lo: 5, Hi: 15}
	got := intersect(a, b)
	if got.Lo != 5 || got.Hi != 10 {
		t.Errorf("intersect = %+v", got)
	}
	// disjoint collapses to a point at the crossing
	c := bootstrap.Range{Lo: 20, Hi: 30}
	got2 := intersect(a, c)
	if got2.Lo != got2.Hi {
		t.Errorf("disjoint intersect = %+v", got2)
	}
}

func TestBuildRangeGuards(t *testing.T) {
	rr := func(point types.Value, vals ...float64) paramRange {
		return replicaRange(point, vals, len(vals), 1)
	}
	// too few observations → unknown
	if pr := rr(types.NewFloat(5), 5, 5); pr.status != rsUnknown {
		t.Errorf("2 reps = %v", pr.status)
	}
	// zero variance → unknown (no dispersion information)
	if pr := rr(types.NewFloat(5), 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5); pr.status != rsUnknown {
		t.Errorf("degenerate reps = %v", pr.status)
	}
	// healthy replicas → range covering point and replica spread
	pr := rr(types.NewFloat(5), 4, 5, 6, 4.5, 5.5, 4, 6, 5, 4.8, 5.2, 4.4, 5.6)
	if pr.status != rsOK {
		t.Fatalf("healthy reps = %v", pr.status)
	}
	if !pr.r.Contains(5) || !pr.r.Contains(4) || !pr.r.Contains(6) {
		t.Errorf("range %+v should cover point and replica extremes", pr.r)
	}
	// NULL point → unknown: a NULL estimate may still become non-NULL
	if pr := rr(types.Null, 1, 2, 3); pr.status != rsUnknown {
		t.Errorf("null point = %v", pr.status)
	}
}

// nullableCatalog is a 400-row table li(k INT, q FLOAT, p FLOAT) with
// every 7th q NULL and, offset from those, every 7th k NULL.
func nullableCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	li := storage.NewTable("li", types.NewSchema(
		"k", types.KindInt, "q", types.KindFloat, "p", types.KindFloat))
	rng := bootstrap.NewRNG(31)
	for i := 0; i < 400; i++ {
		row := types.Row{
			types.NewInt(int64(rng.Intn(20))),
			types.NewFloat(1 + rng.Float64()*99),
			types.NewFloat(rng.Float64() * 50),
		}
		if i%7 == 0 {
			row[1] = types.Null
		}
		if i%7 == 3 {
			row[0] = types.Null
		}
		_ = li.Append(row)
	}
	cat.Put(li)
	return cat
}

// TestNotOverNullMatchesBatch: a comparison or membership with a NULL
// side is NULL, and NOT NULL is NULL, so such a row never passes; a
// classifier reading the NULL as a certain false would let NOT turn it
// into a certain true and fold the row. Each query's final online
// answer must equal the batch answer, through the interpreter (RowPath)
// and the tri-state kernel, serially and at P=2.
func TestNotOverNullMatchesBatch(t *testing.T) {
	cat := nullableCatalog()
	for _, q := range []struct{ name, sql string }{
		{"correlated", `SELECT COUNT(*) FROM li l
			WHERE NOT (q < (SELECT 0.5 * AVG(q) FROM li i WHERE i.k = l.k))`},
		{"membership", `SELECT COUNT(*) FROM li
			WHERE NOT (k IN (SELECT k FROM li GROUP BY k HAVING SUM(q) > 1000))`},
		{"null-scalar", `SELECT COUNT(*) FROM li
			WHERE NOT (p < (SELECT AVG(k) FROM li WHERE k > 100))`},
	} {
		for _, rowPath := range []bool{true, false} {
			for _, p := range []int{1, 2} {
				name := fmt.Sprintf("%s/rowpath=%v/P=%d", q.name, rowPath, p)
				opt := WithSeams(Options{Batches: 10, Trials: 20, Seed: 3, Parallelism: p},
					Seams{PartRows: 16, RowPath: rowPath})
				final, exact, eng := onlineVsExact(t, cat, q.sql, opt)
				if !rowPath && eng.runners[len(eng.runners)-1].classifier() != "tri:kernel" {
					t.Fatalf("%s: root classifier %q, want tri:kernel", name,
						eng.runners[len(eng.runners)-1].classifier())
				}
				got, want := final.ValueRows()[0][0], exact.Rows[0][0]
				if types.Compare(got, want) != 0 {
					t.Errorf("%s: online %v, batch %v", name, got, want)
				}
				eng.Close()
			}
		}
	}
}

// TestEvalTriNullUnderNot pins the polarity rule on single rows: a NULL
// comparison, a NULL membership subject and a NULL param-free subtree
// are false at the top and stay "not true" under one or two NOTs.
func TestEvalTriNullUnderNot(t *testing.T) {
	te := env(10, 20)
	te.setTri = []func(types.Row) tri{func(types.Row) tri { return triTrue }}
	cmp := binop(sqlparser.OpLt, col(0), param())
	set := &expr.SetParam{Idx: 0, X: col(0)}
	free := binop(sqlparser.OpAnd, binop(sqlparser.OpLt, col(0), cnum(5)), param())
	null := types.Row{types.Null}
	for _, e := range []expr.Expr{cmp, set} {
		if got := te.evalTri(e, null); got != triFalse {
			t.Errorf("%s on NULL = %v, want false", e, got)
		}
		if got := te.evalTri(&expr.Not{X: e}, null); got != triFalse {
			t.Errorf("NOT %s on NULL = %v, want false", e, got)
		}
		if got := te.evalTri(&expr.Not{X: &expr.Not{X: e}}, null); got != triFalse {
			t.Errorf("NOT NOT %s on NULL = %v, want false", e, got)
		}
	}
	// NULL AND (unknown) is NULL or false, never true; under NOT it is
	// NULL or true, so undecided.
	if got := te.evalTri(&expr.Not{X: free}, null); got != triUnknown {
		t.Errorf("NOT (NULL AND unknown) = %v, want unknown", got)
	}
	if got := te.evalTri(free, null); got != triFalse {
		t.Errorf("NULL AND unknown = %v, want false", got)
	}
}
