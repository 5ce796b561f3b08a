package expr

import (
	"math"
	"math/rand"
	"testing"

	"fluodb/internal/colstore"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// Numeric-kernel parity: for every row of every segment range, the
// kernel's typed bank and NULL bitmap must carry exactly the value
// Eval returns — same NULL-ness, same kind, same bits.

var (
	nkInts = []int64{0, 1, -1, 2, 7, -13, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}
	nkFlts = []float64{0, math.Copysign(0, -1), 1.5, -2.25, 3, math.NaN(),
		math.Inf(1), math.Inf(-1), 1e308, 5e-324, 1 << 53}
	nkOps = []sqlparser.BinaryOp{sqlparser.OpAdd, sqlparser.OpSub,
		sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod}
)

// nkSchema: two INT, two DOUBLE, a BOOLEAN and a declared-NULL column.
var nkSchema = types.NewSchema(
	"i", types.KindInt, "j", types.KindInt,
	"f", types.KindFloat, "g", types.KindFloat,
	"b", types.KindBool, "z", types.KindNull,
)

// nkValue draws a cell of the given kind from the special values (NULL
// included), steered by pick.
func nkValue(pick func(int) int, k types.Kind) types.Value {
	if k == types.KindNull || pick(8) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		return types.NewInt(nkInts[pick(len(nkInts))])
	case types.KindFloat:
		return types.NewFloat(nkFlts[pick(len(nkFlts))])
	default:
		return types.NewBool(pick(2) == 1)
	}
}

// nkTable builds n rows of special values. The first rows walk the
// INT×INT and DOUBLE×DOUBLE special cross products, so every pairing
// (zero divisors, MinInt64 % -1, NaN, ±Inf, ±0) appears in i∘j / f∘g.
func nkTable(pick func(int) int, n, segSize int) (*colstore.Table, []types.Row) {
	rows := make([]types.Row, n)
	for r := range rows {
		row := make(types.Row, len(nkSchema))
		for c, col := range nkSchema {
			row[c] = nkValue(pick, col.Type)
		}
		if k := len(nkInts); r < k*k {
			row[0], row[1] = types.NewInt(nkInts[r/k]), types.NewInt(nkInts[r%k])
		}
		if k := len(nkFlts); r < k*k {
			row[2], row[3] = types.NewFloat(nkFlts[r/k]), types.NewFloat(nkFlts[r%k])
		}
		rows[r] = row
	}
	return colstore.Build(nkSchema, rows, segSize), rows
}

// nkConst draws a numeric, BOOLEAN or NULL constant.
func nkConst(pick func(int) int) *Const {
	switch pick(4) {
	case 0:
		return &Const{V: types.NewInt(nkInts[pick(len(nkInts))])}
	case 1:
		return &Const{V: types.NewFloat(nkFlts[pick(len(nkFlts))])}
	case 2:
		return &Const{V: types.NewBool(pick(2) == 1)}
	default:
		return &Const{V: types.Null}
	}
}

// nkTree draws an expression from the compilable grammar.
func nkTree(pick func(int) int, depth int) Expr {
	if depth <= 0 || pick(4) == 0 {
		if pick(4) == 0 {
			return nkConst(pick)
		}
		c := pick(len(nkSchema))
		return &Col{Idx: c, Name: nkSchema[c].Name, Typ: nkSchema[c].Type}
	}
	if pick(5) == 0 {
		return &Neg{X: nkTree(pick, depth-1)}
	}
	return &Binary{Op: nkOps[pick(len(nkOps))], L: nkTree(pick, depth-1), R: nkTree(pick, depth-1)}
}

// nkCheck compares the kernel with Eval on every row of [lo,hi).
func nkCheck(t *testing.T, k *NumKernel, ex Expr, seg *colstore.Segment, lo, hi int) {
	t.Helper()
	col := k.Eval(seg, lo, hi)
	ctx := &Ctx{}
	for i := lo; i < hi; i++ {
		ctx.Row = seg.Rows[i]
		want := ex.Eval(ctx)
		if want.IsNull() != col.Null(i) {
			t.Fatalf("%s on %v: kernel NULL=%v, Eval %v", ex, seg.Rows[i], col.Null(i), want)
		}
		if want.IsNull() {
			continue
		}
		if want.Kind() != k.Kind() {
			t.Fatalf("%s on %v: kernel kind %v, Eval %v", ex, seg.Rows[i], k.Kind(), want)
		}
		switch want.Kind() {
		case types.KindFloat:
			if got := col.Floats[i]; math.Float64bits(got) != math.Float64bits(want.Float()) {
				t.Fatalf("%s on %v: kernel %v (%#x), Eval %v (%#x)", ex, seg.Rows[i],
					got, math.Float64bits(got), want, math.Float64bits(want.Float()))
			}
		case types.KindInt:
			if got := col.Ints[i]; got != want.Int() {
				t.Fatalf("%s on %v: kernel %d, Eval %v", ex, seg.Rows[i], got, want)
			}
		default:
			if got := col.Ints[i] != 0; got != want.Bool() {
				t.Fatalf("%s on %v: kernel %v, Eval %v", ex, seg.Rows[i], got, want)
			}
		}
	}
}

// nkCheckAll sweeps every segment whole and then through a sub-range
// that starts and ends off a bitmap word boundary.
func nkCheckAll(t *testing.T, ex Expr, ct *colstore.Table) {
	t.Helper()
	k := CompileNumKernel(ex, ct)
	if k == nil {
		t.Fatalf("%s should compile", ex)
	}
	for _, seg := range ct.Segs {
		nkCheck(t, k, ex, seg, 0, seg.N)
		if seg.N > 80 {
			nkCheck(t, k, ex, seg, 3, seg.N-5)
		}
	}
}

func TestNumKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ct, _ := nkTable(rng.Intn, 700, 256)
	i, j := &Col{Idx: 0, Name: "i", Typ: types.KindInt}, &Col{Idx: 1, Name: "j", Typ: types.KindInt}
	f, g := &Col{Idx: 2, Name: "f", Typ: types.KindFloat}, &Col{Idx: 3, Name: "g", Typ: types.KindFloat}
	b, z := &Col{Idx: 4, Name: "b", Typ: types.KindBool}, &Col{Idx: 5, Name: "z", Typ: types.KindNull}
	num := func(v any) *Const {
		switch x := v.(type) {
		case int:
			return &Const{V: types.NewInt(int64(x))}
		case float64:
			return &Const{V: types.NewFloat(x)}
		}
		return &Const{V: types.Null}
	}
	bin := func(op sqlparser.BinaryOp, l, r Expr) Expr { return &Binary{Op: op, L: l, R: r} }
	for _, tc := range []struct {
		name string
		ex   Expr
	}{
		{"int-add-wraps", bin(sqlparser.OpAdd, i, j)},
		{"int-mul-wraps", bin(sqlparser.OpMul, i, j)},
		{"int-sub", bin(sqlparser.OpSub, i, j)},
		{"int-mod-zero-and-minint", bin(sqlparser.OpMod, i, j)},
		{"int-mod-minus-one", bin(sqlparser.OpMod, i, num(-1))},
		{"int-div-is-float", bin(sqlparser.OpDiv, i, j)},
		{"float-div-zero", bin(sqlparser.OpDiv, f, g)},
		{"float-mod", bin(sqlparser.OpMod, f, g)},
		{"mixed-mul", bin(sqlparser.OpMul, f, i)},
		{"mixed-sub", bin(sqlparser.OpSub, j, g)},
		{"bool-operand", bin(sqlparser.OpAdd, b, i)},
		{"bool-mod-bool", bin(sqlparser.OpMod, b, b)},
		{"neg-bool", &Neg{X: b}},
		{"neg-int", &Neg{X: i}},
		{"neg-float", &Neg{X: f}},
		{"const-left", bin(sqlparser.OpSub, num(3), i)},
		{"const-right", bin(sqlparser.OpDiv, f, num(0.5))},
		{"const-zero-divisor", bin(sqlparser.OpMod, f, num(0))},
		{"null-const", bin(sqlparser.OpAdd, i, num(nil))},
		{"null-column", bin(sqlparser.OpMul, z, f)},
		{"folded-const", bin(sqlparser.OpMul, bin(sqlparser.OpAdd, num(1), num(2.5)), i)},
		{"three-deep", bin(sqlparser.OpMod, bin(sqlparser.OpAdd, bin(sqlparser.OpMul, i, j), f),
			bin(sqlparser.OpSub, g, num(2)))},
		{"three-deep-neg", &Neg{X: bin(sqlparser.OpSub, i, bin(sqlparser.OpMul, j, num(3)))}},
	} {
		t.Run(tc.name, func(t *testing.T) { nkCheckAll(t, tc.ex, ct) })
	}
	for trial := 0; trial < 400; trial++ {
		nkCheckAll(t, nkTree(rng.Intn, 3), ct)
	}
}

// TestNumKernelNotCompilable: trees outside the subset return nil.
func TestNumKernelNotCompilable(t *testing.T) {
	env := vtBuild(1, 10)
	i, s := env.col(1), env.col(3)
	mixed := colstore.Build(types.NewSchema("x", types.KindInt),
		[]types.Row{{types.NewInt(1)}, {types.NewString("oops")}}, 0)
	for n, tc := range []struct {
		ex Expr
		ct *colstore.Table
	}{
		{&Case{}, env.ct},
		{&Call{Fn: &ScalarFunc{Name: "ABS"}, Args: []Expr{i}}, env.ct},
		{&Binary{Op: sqlparser.OpAdd, L: i, R: &ScalarParam{Idx: 0}}, env.ct},
		{&Binary{Op: sqlparser.OpAdd, L: i, R: s}, env.ct},
		{&Binary{Op: sqlparser.OpAdd, L: i, R: &Const{V: types.NewString("1")}}, env.ct},
		{&Binary{Op: sqlparser.OpLt, L: i, R: i}, env.ct},
		{&Binary{Op: sqlparser.OpAnd, L: i, R: i}, env.ct},
		{&Neg{X: &Col{Idx: 99}}, env.ct},
		{&Binary{Op: sqlparser.OpMul, L: &Col{Idx: 0, Typ: types.KindInt}, R: &Const{V: types.NewInt(2)}}, mixed},
		{i, nil},
	} {
		if CompileNumKernel(tc.ex, tc.ct) != nil {
			t.Errorf("case %d (%s): expected nil kernel", n, tc.ex)
		}
	}
}

// TestNumKernelKey: equal keys mean equal computations — INT 1 and
// DOUBLE 1.0 render alike in String() but must not share a key.
func TestNumKernelKey(t *testing.T) {
	env := vtBuild(1, 10)
	i := env.col(1)
	key := func(v types.Value) string {
		return CompileNumKernel(&Binary{Op: sqlparser.OpAdd, L: i, R: &Const{V: v}}, env.ct).Key()
	}
	if a, b := key(types.NewInt(1)), key(types.NewFloat(1)); a == b {
		t.Fatalf("INT and DOUBLE constants share key %q", a)
	}
	if a, b := key(types.NewFloat(0)), key(types.NewFloat(math.Copysign(0, -1))); a == b {
		t.Fatalf("0.0 and -0.0 share key %q", a)
	}
	if a, b := key(types.NewInt(4)), key(types.NewInt(4)); a != b {
		t.Fatalf("same expression, keys %q and %q", a, b)
	}
}

// byteSource turns fuzz input into choices; exhausted input picks 0.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) pick(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % n
}

// FuzzNumKernel: a tree and a table drawn from the input must agree
// with Eval row for row. The seed corpus runs under plain go test.
func FuzzNumKernel(f *testing.F) {
	for _, seed := range [][]byte{
		{}, {1, 2, 3, 4, 5, 6, 7, 8}, {9, 1, 4, 0, 3, 3, 2, 200, 17, 4, 4},
		{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244},
		{3, 1, 1, 0, 4, 3, 2, 1, 0, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7},
	} {
		f.Add(uint8(3), uint16(150), seed)
	}
	f.Fuzz(func(t *testing.T, depth uint8, nrows uint16, data []byte) {
		src := &byteSource{b: data}
		ex := nkTree(src.pick, int(depth%5))
		seed := int64(nrows)
		for _, c := range data {
			seed = seed*131 + int64(c)
		}
		rng := rand.New(rand.NewSource(seed))
		ct, _ := nkTable(rng.Intn, 1+int(nrows%300), 64)
		if CompileNumKernel(ex, ct) == nil {
			t.Fatalf("%s should compile", ex)
		}
		nkCheckAll(t, ex, ct)
	})
}
