package expr

import (
	"math"
	"testing"
	"testing/quick"

	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

func ev(t *testing.T, e Expr, row types.Row) types.Value {
	t.Helper()
	return e.Eval(&Ctx{Row: row})
}

func bin(op sqlparser.BinaryOp, l, r Expr) Expr { return &Binary{Op: op, L: l, R: r} }
func c(v types.Value) Expr                      { return &Const{V: v} }
func ci(i int64) Expr                           { return c(types.NewInt(i)) }
func cf(f float64) Expr                         { return c(types.NewFloat(f)) }
func cs(s string) Expr                          { return c(types.NewString(s)) }

func TestColAndConst(t *testing.T) {
	col := &Col{Idx: 1, Name: "b", Typ: types.KindInt}
	row := types.Row{types.NewInt(1), types.NewInt(7)}
	if got := ev(t, col, row); got.Int() != 7 {
		t.Errorf("col = %v", got)
	}
	if got := ev(t, &Col{Idx: 9}, row); !got.IsNull() {
		t.Errorf("out-of-range col = %v", got)
	}
	if got := ev(t, ci(3), nil); got.Int() != 3 {
		t.Errorf("const = %v", got)
	}
}

func TestArithmeticIntAndFloat(t *testing.T) {
	if got := ev(t, bin(sqlparser.OpAdd, ci(2), ci(3)), nil); got.Kind() != types.KindInt || got.Int() != 5 {
		t.Errorf("2+3 = %v (%v)", got, got.Kind())
	}
	if got := ev(t, bin(sqlparser.OpDiv, ci(7), ci(2)), nil); got.Kind() != types.KindFloat || got.Float() != 3.5 {
		t.Errorf("7/2 = %v", got)
	}
	if got := ev(t, bin(sqlparser.OpMul, cf(1.5), ci(4)), nil); got.Float() != 6 {
		t.Errorf("1.5*4 = %v", got)
	}
	if got := ev(t, bin(sqlparser.OpMod, ci(7), ci(3)), nil); got.Int() != 1 {
		t.Errorf("7%%3 = %v", got)
	}
	if got := ev(t, bin(sqlparser.OpDiv, ci(1), ci(0)), nil); !got.IsNull() {
		t.Errorf("1/0 = %v, want NULL", got)
	}
	if got := ev(t, bin(sqlparser.OpMod, ci(1), ci(0)), nil); !got.IsNull() {
		t.Errorf("1%%0 = %v, want NULL", got)
	}
}

func TestComparisonNullPropagation(t *testing.T) {
	if got := ev(t, bin(sqlparser.OpGt, c(types.Null), ci(1)), nil); !got.IsNull() {
		t.Errorf("NULL > 1 = %v", got)
	}
	if got := ev(t, bin(sqlparser.OpEq, ci(1), cf(1.0)), nil); !got.Bool() {
		t.Error("1 = 1.0 should be true")
	}
	if got := ev(t, bin(sqlparser.OpNe, cs("a"), cs("b")), nil); !got.Bool() {
		t.Error("'a' <> 'b' should be true")
	}
}

func TestKleeneLogic(t *testing.T) {
	T, F, N := c(types.NewBool(true)), c(types.NewBool(false)), c(types.Null)
	cases := []struct {
		e    Expr
		want string
	}{
		{bin(sqlparser.OpAnd, T, T), "true"},
		{bin(sqlparser.OpAnd, T, N), "NULL"},
		{bin(sqlparser.OpAnd, F, N), "false"},
		{bin(sqlparser.OpAnd, N, F), "false"},
		{bin(sqlparser.OpOr, F, N), "NULL"},
		{bin(sqlparser.OpOr, T, N), "true"},
		{bin(sqlparser.OpOr, N, T), "true"},
		{bin(sqlparser.OpOr, F, F), "false"},
	}
	for _, cse := range cases {
		if got := ev(t, cse.e, nil).String(); got != cse.want {
			t.Errorf("%s = %s, want %s", cse.e, got, cse.want)
		}
	}
}

func TestNotNegIsNull(t *testing.T) {
	if got := ev(t, &Not{X: c(types.NewBool(false))}, nil); !got.Bool() {
		t.Error("NOT false")
	}
	if got := ev(t, &Not{X: c(types.Null)}, nil); !got.IsNull() {
		t.Error("NOT NULL should be NULL")
	}
	if got := ev(t, &Neg{X: ci(5)}, nil); got.Int() != -5 {
		t.Error("-5")
	}
	if got := ev(t, &Neg{X: cs("x")}, nil); !got.IsNull() {
		t.Error("-string should be NULL")
	}
	if got := ev(t, &IsNull{X: c(types.Null)}, nil); !got.Bool() {
		t.Error("NULL IS NULL")
	}
	if got := ev(t, &IsNull{X: ci(1), Negated: true}, nil); !got.Bool() {
		t.Error("1 IS NOT NULL")
	}
}

func TestInListSemantics(t *testing.T) {
	in := &InList{X: ci(2), List: []Expr{ci(1), ci(2)}}
	if got := ev(t, in, nil); !got.Bool() {
		t.Error("2 IN (1,2)")
	}
	// not found but NULL present → NULL
	in2 := &InList{X: ci(3), List: []Expr{ci(1), c(types.Null)}}
	if got := ev(t, in2, nil); !got.IsNull() {
		t.Errorf("3 IN (1,NULL) = %v, want NULL", got)
	}
	in3 := &InList{X: ci(3), List: []Expr{ci(1)}, Negated: true}
	if got := ev(t, in3, nil); !got.Bool() {
		t.Error("3 NOT IN (1)")
	}
}

func TestScalarParamBinding(t *testing.T) {
	p := &ScalarParam{Idx: 0, Typ: types.KindFloat, Desc: "AVG(x)"}
	e := bin(sqlparser.OpGt, ci(10), p)
	got := e.Eval(&Ctx{Scalars: []types.Value{types.NewFloat(5)}})
	if !got.Bool() {
		t.Error("10 > $0(=5)")
	}
	// rebind (what snapshots and bootstrap replicas do)
	got = e.Eval(&Ctx{Scalars: []types.Value{types.NewFloat(50)}})
	if got.Bool() {
		t.Error("10 > $0(=50) should be false")
	}
	if got := e.Eval(&Ctx{}); !got.IsNull() {
		t.Error("unbound scalar param should evaluate to NULL")
	}
}

func TestGroupParamBinding(t *testing.T) {
	key := &Col{Idx: 0, Name: "partkey", Typ: types.KindInt}
	p := &GroupParam{Idx: 0, Keys: []Expr{key}, Typ: types.KindFloat, Desc: "AVG(q) BY partkey"}
	lookup := func(p *GroupParam, ctx *Ctx) (types.Value, bool) {
		if p.KeyString(ctx) == (types.Row{types.NewInt(7)}).KeyString([]int{0}) {
			return types.NewFloat(3.5), true
		}
		return types.Null, false
	}
	ctx := &Ctx{Row: types.Row{types.NewInt(7)}, Groups: []GroupLookup{lookup}}
	if got := p.Eval(ctx); got.Float() != 3.5 {
		t.Errorf("group param = %v", got)
	}
	ctx.Row = types.Row{types.NewInt(8)}
	if got := p.Eval(ctx); !got.IsNull() {
		t.Errorf("missing group = %v, want NULL", got)
	}
}

func TestSetParamBinding(t *testing.T) {
	s := &SetParam{Idx: 0, X: &Col{Idx: 0, Name: "k", Typ: types.KindInt}}
	member := func(x types.Value) bool {
		return types.KeyString1(x) == (types.Row{types.NewInt(1)}).KeyString([]int{0})
	}
	ctx := &Ctx{Row: types.Row{types.NewInt(1)}, SetsFns: []SetLookup{member}}
	if !s.Eval(ctx).Bool() {
		t.Error("1 IN set")
	}
	ctx.Row = types.Row{types.NewInt(2)}
	if s.Eval(ctx).Bool() {
		t.Error("2 IN set should be false")
	}
	neg := &SetParam{Idx: 0, X: &Col{Idx: 0}, Negated: true}
	if !neg.Eval(ctx).Bool() {
		t.Error("2 NOT IN set should be true")
	}
	ctx.Row = types.Row{types.Null}
	if !s.Eval(ctx).IsNull() {
		t.Error("NULL IN set should be NULL")
	}
}

func TestCaseExpr(t *testing.T) {
	cse := &Case{
		Whens: []struct{ Cond, Result Expr }{
			{bin(sqlparser.OpGt, &Col{Idx: 0}, ci(10)), cs("big")},
			{bin(sqlparser.OpGt, &Col{Idx: 0}, ci(0)), cs("small")},
		},
		Else: cs("neg"),
	}
	if got := ev(t, cse, types.Row{types.NewInt(20)}); got.Str() != "big" {
		t.Errorf("case(20) = %v", got)
	}
	if got := ev(t, cse, types.Row{types.NewInt(5)}); got.Str() != "small" {
		t.Errorf("case(5) = %v", got)
	}
	if got := ev(t, cse, types.Row{types.NewInt(-1)}); got.Str() != "neg" {
		t.Errorf("case(-1) = %v", got)
	}
	noElse := &Case{Whens: cse.Whens}
	if got := ev(t, noElse, types.Row{types.NewInt(-1)}); !got.IsNull() {
		t.Errorf("case without else = %v", got)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_ll", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "%%c", true},
		{"mississippi", "%iss%ppi", true},
	}
	for _, cse := range cases {
		e := bin(sqlparser.OpLike, cs(cse.s), cs(cse.p))
		if got := ev(t, e, nil).Bool(); got != cse.want {
			t.Errorf("%q LIKE %q = %v, want %v", cse.s, cse.p, got, cse.want)
		}
	}
	// LIKE on non-strings is NULL
	if got := ev(t, bin(sqlparser.OpLike, ci(1), cs("%")), nil); !got.IsNull() {
		t.Error("1 LIKE '%' should be NULL")
	}
}

func TestBuiltins(t *testing.T) {
	call := func(name string, args ...Expr) types.Value {
		f, ok := LookupFunc(name)
		if !ok {
			t.Fatalf("missing builtin %s", name)
		}
		e, err := NewCall(f, args)
		if err != nil {
			t.Fatalf("NewCall(%s): %v", name, err)
		}
		return e.Eval(&Ctx{})
	}
	if got := call("ABS", ci(-7)); got.Int() != 7 {
		t.Errorf("ABS = %v", got)
	}
	if got := call("FLOOR", cf(3.9)); got.Int() != 3 {
		t.Errorf("FLOOR = %v", got)
	}
	if got := call("CEIL", cf(3.1)); got.Int() != 4 {
		t.Errorf("CEIL = %v", got)
	}
	if got := call("ROUND", cf(3.14159), ci(2)); got.Float() != 3.14 {
		t.Errorf("ROUND = %v", got)
	}
	if got := call("SQRT", cf(9)); got.Float() != 3 {
		t.Errorf("SQRT = %v", got)
	}
	if got := call("SQRT", cf(-1)); !got.IsNull() {
		t.Errorf("SQRT(-1) = %v, want NULL", got)
	}
	if got := call("POW", cf(2), cf(10)); got.Float() != 1024 {
		t.Errorf("POW = %v", got)
	}
	if got := call("LEAST", ci(3), ci(1), ci(2)); got.Int() != 1 {
		t.Errorf("LEAST = %v", got)
	}
	if got := call("GREATEST", ci(3), ci(1)); got.Int() != 3 {
		t.Errorf("GREATEST = %v", got)
	}
	if got := call("COALESCE", c(types.Null), ci(5)); got.Int() != 5 {
		t.Errorf("COALESCE = %v", got)
	}
	if got := call("NULLIF", ci(5), ci(5)); !got.IsNull() {
		t.Errorf("NULLIF = %v", got)
	}
	if got := call("IF", c(types.NewBool(true)), ci(1), ci(2)); got.Int() != 1 {
		t.Errorf("IF = %v", got)
	}
	if got := call("LENGTH", cs("abc")); got.Int() != 3 {
		t.Errorf("LENGTH = %v", got)
	}
	if got := call("UPPER", cs("abc")); got.Str() != "ABC" {
		t.Errorf("UPPER = %v", got)
	}
	if got := call("SUBSTR", cs("hello"), ci(2), ci(3)); got.Str() != "ell" {
		t.Errorf("SUBSTR = %v", got)
	}
	if got := call("CONCAT", cs("a"), ci(1)); got.Str() != "a1" {
		t.Errorf("CONCAT = %v", got)
	}
	if got := call("SIGN", cf(-2.5)); got.Int() != -1 {
		t.Errorf("SIGN = %v", got)
	}
	if got := call("MOD", ci(10), ci(3)); got.Int() != 1 {
		t.Errorf("MOD = %v", got)
	}
}

func TestCallArityChecked(t *testing.T) {
	f, _ := LookupFunc("SQRT")
	if _, err := NewCall(f, []Expr{ci(1), ci(2)}); err == nil {
		t.Error("SQRT/2 should be rejected")
	}
	if _, err := NewCall(f, nil); err == nil {
		t.Error("SQRT/0 should be rejected")
	}
}

func TestRegisterUDF(t *testing.T) {
	RegisterFunc(&ScalarFunc{
		Name: "DOUBLE_IT", MinArgs: 1, MaxArgs: 1,
		Eval: func(args []types.Value) types.Value {
			x, ok := args[0].AsFloat()
			if !ok {
				return types.Null
			}
			return types.NewFloat(2 * x)
		},
	})
	f, ok := LookupFunc("double_it")
	if !ok {
		t.Fatal("UDF not registered")
	}
	e, _ := NewCall(f, []Expr{cf(21)})
	if got := e.Eval(&Ctx{}); got.Float() != 42 {
		t.Errorf("UDF = %v", got)
	}
}

func TestArithPropertyQuick(t *testing.T) {
	// Property: for finite floats, (a+b)-b ≈ a under our evaluator.
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		e := bin(sqlparser.OpSub, bin(sqlparser.OpAdd, cf(a), cf(b)), cf(b))
		got, ok := e.Eval(&Ctx{}).AsFloat()
		return ok && math.Abs(got-a) <= 1e-6*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparisonTrichotomyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		lt := ev(nil2(t), bin(sqlparser.OpLt, ci(a), ci(b)), nil).Bool()
		eq := ev(nil2(t), bin(sqlparser.OpEq, ci(a), ci(b)), nil).Bool()
		gt := ev(nil2(t), bin(sqlparser.OpGt, ci(a), ci(b)), nil).Bool()
		n := 0
		for _, x := range []bool{lt, eq, gt} {
			if x {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// nil2 adapts t for helpers in quick closures.
func nil2(t *testing.T) *testing.T { return t }

func TestStringRendering(t *testing.T) {
	e := bin(sqlparser.OpGt, &Col{Idx: 0, Name: "a"}, &ScalarParam{Idx: 1, Desc: "AVG(b)"})
	s := e.String()
	if s != "(a#0 > $1{AVG(b)})" {
		t.Errorf("String = %q", s)
	}
}

func TestStringBuiltins(t *testing.T) {
	call := func(name string, args ...Expr) types.Value {
		fn, ok := LookupFunc(name)
		if !ok {
			t.Fatalf("missing builtin %s", name)
		}
		e, err := NewCall(fn, args)
		if err != nil {
			t.Fatal(err)
		}
		return e.Eval(&Ctx{})
	}
	if got := call("TRIM", cs("  hi  ")); got.Str() != "hi" {
		t.Errorf("TRIM = %q", got)
	}
	if got := call("REPLACE", cs("a-b-c"), cs("-"), cs("+")); got.Str() != "a+b+c" {
		t.Errorf("REPLACE = %q", got)
	}
	if got := call("STARTS_WITH", cs("Brand#11"), cs("Brand")); !got.Bool() {
		t.Error("STARTS_WITH")
	}
	if got := call("CONTAINS", cs("mississippi"), cs("ssis")); !got.Bool() {
		t.Error("CONTAINS")
	}
	if got := call("TRUNC", cf(-2.9)); got.Int() != -2 {
		t.Errorf("TRUNC = %v", got)
	}
	if got := call("TRIM", ci(5)); !got.IsNull() {
		t.Error("TRIM of non-string should be NULL")
	}
}

func TestConversionBuiltins(t *testing.T) {
	call := func(name string, arg Expr) types.Value {
		fn, _ := LookupFunc(name)
		e, _ := NewCall(fn, []Expr{arg})
		return e.Eval(&Ctx{})
	}
	if got := call("TO_INT", cs(" 42 ")); got.Int() != 42 {
		t.Errorf("TO_INT string = %v", got)
	}
	if got := call("TO_INT", cf(3.9)); got.Int() != 3 {
		t.Errorf("TO_INT float = %v", got)
	}
	if got := call("TO_INT", cs("zap")); !got.IsNull() {
		t.Errorf("TO_INT garbage = %v", got)
	}
	if got := call("TO_FLOAT", cs("2.5")); got.Float() != 2.5 {
		t.Errorf("TO_FLOAT = %v", got)
	}
	if got := call("TO_STRING", ci(7)); got.Str() != "7" {
		t.Errorf("TO_STRING = %v", got)
	}
	if got := call("TO_STRING", c(types.Null)); !got.IsNull() {
		t.Errorf("TO_STRING NULL = %v", got)
	}
}
