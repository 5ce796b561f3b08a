// Vectorized predicate kernels: a compilable subtree of a bound
// expression (Col/Const leaves; comparison, LIKE-on-dictionary, AND/OR,
// NOT, IS NULL) is lowered once into a small tree of typed loop nodes
// that evaluate a whole colstore segment range into a tri-state byte
// vector — no per-row interface dispatch, no Value boxing.
//
// The contract that matters is bit-identity with the row path: for every
// row, the kernel's tri byte equals the three-valued truth of
// Expr.Eval on that row (TriTrue ⟺ Eval(...).Truthy(), TriNull ⟺ NULL,
// TriFalse otherwise). AND/OR evaluate both sides instead of
// short-circuiting, which is observationally identical here because
// compilable subtrees are pure. Anything outside the compilable subset —
// params, arithmetic inside comparisons, CASE, IN-lists over non-string
// columns, mixed-kind columns — makes CompileKernel return nil and the
// caller stays on the per-row path.
//
// String predicates run over dictionary codes, never string bytes:
// `=`/`!=` against a string constant resolve the constant to its
// table-wide code once at compile (a string absent from the dictionary
// is stored nowhere, so the comparison folds to a constant vector with
// NULLs preserved), and IN-lists/LIKE/ordered compares precompute a
// per-code tri table by running the row evaluator once per distinct
// string.
package expr

import (
	"fluodb/internal/colstore"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// Tri-state bytes produced by kernels. The encoding matches the
// engine's classify logic: a row passes a certain WHERE iff its byte is
// TriTrue.
const (
	TriFalse uint8 = 0 // non-NULL, not truthy
	TriTrue  uint8 = 1 // truthy
	TriNull  uint8 = 2 // SQL NULL
)

// Kernel is a compiled segment-at-a-time predicate evaluator. A Kernel
// owns scratch buffers for its inner AND/OR nodes and is therefore NOT
// safe for concurrent use: compile one per worker (compilation is cheap
// and pure).
type Kernel struct {
	root vecNode
}

// CompileKernel lowers e into a vector kernel over ct's layout, or
// returns nil if any part of e falls outside the compilable subset.
func CompileKernel(e Expr, ct *colstore.Table) *Kernel {
	if ct == nil {
		return nil
	}
	n := compileVec(e, ct)
	if n == nil {
		return nil
	}
	return &Kernel{root: n}
}

// EvalInto fills out[lo:hi] (segment-local indexes) with the tri-state
// truth of the compiled expression for each row of seg.
func (k *Kernel) EvalInto(out []uint8, seg *colstore.Segment, lo, hi int) {
	k.root.eval(out, seg, lo, hi)
}

type vecNode interface {
	eval(out []uint8, seg *colstore.Segment, lo, hi int)
}

// triOf maps a scalar value to its tri byte (the single definition the
// whole kernel layer shares with the row path's Truthy semantics).
func triOf(v types.Value) uint8 {
	if v.IsNull() {
		return TriNull
	}
	if v.Truthy() {
		return TriTrue
	}
	return TriFalse
}

func cleanCol(ct *colstore.Table, idx int) bool {
	return idx >= 0 && idx < len(ct.Schema) && !ct.Mixed[idx]
}

func compileVec(e Expr, ct *colstore.Table) vecNode {
	switch x := e.(type) {
	case *Const:
		return vecConst{tri: triOf(x.V)}
	case *Col:
		if !cleanCol(ct, x.Idx) {
			return nil
		}
		return &vecTruthy{col: x.Idx, kind: ct.Schema[x.Idx].Type}
	case *Not:
		inner := compileVec(x.X, ct)
		if inner == nil {
			return nil
		}
		return &vecNot{x: inner}
	case *IsNull:
		c, ok := x.X.(*Col)
		if !ok || !cleanCol(ct, c.Idx) {
			return nil
		}
		return &vecIsNull{col: c.Idx, negated: x.Negated}
	case *Binary:
		switch x.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			l := compileVec(x.L, ct)
			if l == nil {
				return nil
			}
			r := compileVec(x.R, ct)
			if r == nil {
				return nil
			}
			tmp := make([]uint8, ct.SegSize)
			if x.Op == sqlparser.OpAnd {
				return &vecLogic{l: l, r: r, tmp: tmp, table: &kleeneAnd}
			}
			return &vecLogic{l: l, r: r, tmp: tmp, table: &kleeneOr}
		default:
			return compileCmp(x, ct)
		}
	case *InList:
		// IN over a dictionary column with an all-constant list: a
		// per-code tri table probed through the row evaluator inherits
		// the exact IN semantics (found → !Negated, any NULL element →
		// NULL, else Negated; NULL subject → NULL via the bitmap branch).
		c, ok := x.X.(*Col)
		if !ok || !cleanCol(ct, c.Idx) || ct.Schema[c.Idx].Type != types.KindString {
			return nil
		}
		for _, it := range x.List {
			if _, isConst := it.(*Const); !isConst {
				return nil
			}
		}
		dict := ct.Dicts[c.Idx]
		table := make([]uint8, len(dict.Vals))
		ctx := &Ctx{}
		for code, s := range dict.Vals {
			probe := &InList{X: &Const{V: types.NewString(s)}, List: x.List, Negated: x.Negated}
			table[code] = triOf(probe.Eval(ctx))
		}
		return &vecStrTable{col: c.Idx, table: table}
	}
	return nil
}

// opTable maps a comparison operator to its truth table indexed by the
// types.Compare sign (0: less, 1: equal, 2: greater).
func opTable(op sqlparser.BinaryOp) ([3]uint8, bool) {
	switch op {
	case sqlparser.OpEq:
		return [3]uint8{0, 1, 0}, true
	case sqlparser.OpNe:
		return [3]uint8{1, 0, 1}, true
	case sqlparser.OpLt:
		return [3]uint8{1, 0, 0}, true
	case sqlparser.OpLe:
		return [3]uint8{1, 1, 0}, true
	case sqlparser.OpGt:
		return [3]uint8{0, 0, 1}, true
	case sqlparser.OpGe:
		return [3]uint8{0, 1, 1}, true
	default:
		return [3]uint8{}, false
	}
}

// FlipOp reverses a comparison so `const op col` becomes `col op' const`:
// b FlipOp(op) a holds exactly when a op b does.
func FlipOp(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

func numericKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindBool
}

func compileCmp(b *Binary, ct *colstore.Table) vecNode {
	_, isCmp := opTable(b.Op)
	if !isCmp && b.Op != sqlparser.OpLike {
		return nil
	}

	lc, lIsCol := b.L.(*Col)
	rc, rIsCol := b.R.(*Col)
	lk, lIsConst := b.L.(*Const)
	rk, rIsConst := b.R.(*Const)

	// Both constant: fold to a single tri byte via the row evaluator, so
	// the semantics are its by construction.
	if lIsConst && rIsConst {
		return vecConst{tri: triOf(b.Eval(&Ctx{}))}
	}

	// NULL constant operand: every comparison (and LIKE) yields NULL.
	if (lIsConst && lk.V.IsNull()) || (rIsConst && rk.V.IsNull()) {
		return vecConst{tri: TriNull}
	}

	// Dictionary equality fast path: string `=`/`!=` string constant
	// compares codes, not bytes — the constant resolves to its table-wide
	// code once at compile, and code equality is string equality because
	// codes are unique per distinct string. A constant absent from the
	// dictionary can match no stored row, so the comparison folds to a
	// constant vector (NULL rows still yield NULL).
	if b.Op == sqlparser.OpEq || b.Op == sqlparser.OpNe {
		neg := b.Op == sqlparser.OpNe
		if lIsCol && rIsConst && cleanCol(ct, lc.Idx) &&
			ct.Schema[lc.Idx].Type == types.KindString && rk.V.Kind() == types.KindString {
			return codeEqNode(ct, lc.Idx, rk.V.Str(), neg)
		}
		if rIsCol && lIsConst && cleanCol(ct, rc.Idx) &&
			ct.Schema[rc.Idx].Type == types.KindString && lk.V.Kind() == types.KindString {
			return codeEqNode(ct, rc.Idx, lk.V.Str(), neg)
		}
	}

	// A clean dictionary-encoded string column against a constant: build
	// a per-code truth table by running the row evaluator once per
	// distinct string. This inherits every corner of the row semantics —
	// lexicographic compares, LIKE patterns, mixed-kind tag ordering —
	// because the table *is* the row evaluator's answer.
	if lIsCol && rIsConst && cleanCol(ct, lc.Idx) && ct.Schema[lc.Idx].Type == types.KindString {
		return strTableNode(ct, lc.Idx, b.Op, rk.V, false)
	}
	if rIsCol && lIsConst && cleanCol(ct, rc.Idx) && ct.Schema[rc.Idx].Type == types.KindString {
		return strTableNode(ct, rc.Idx, b.Op, lk.V, true)
	}

	if b.Op == sqlparser.OpLike {
		return nil // LIKE over non-string columns: stay on the row path
	}

	// Numeric column vs numeric constant (normalize const-op-col).
	if lIsConst && rIsCol {
		lc, rc = rc, nil
		lIsCol, rIsCol = true, false
		rk = lk
		rIsConst = true
		b = &Binary{Op: FlipOp(b.Op), L: lc, R: rk}
	}
	tt, _ := opTable(b.Op)
	if lIsCol && rIsConst {
		if !cleanCol(ct, lc.Idx) || !numericKind(ct.Schema[lc.Idx].Type) || !numericKind(rk.V.Kind()) {
			return nil
		}
		colKind := ct.Schema[lc.Idx].Type
		if colKind == types.KindInt && rk.V.Kind() == types.KindInt {
			return &vecCmpII{col: lc.Idx, k: rk.V.Int(), tt: tt}
		}
		f, _ := rk.V.AsFloat()
		if colKind == types.KindFloat {
			return &vecCmpFC{col: lc.Idx, k: f, tt: tt}
		}
		return &vecCmpIC{col: lc.Idx, k: f, tt: tt}
	}

	// Column vs column, both numeric-ish.
	if lIsCol && rIsCol {
		if !cleanCol(ct, lc.Idx) || !cleanCol(ct, rc.Idx) {
			return nil
		}
		lt, rt := ct.Schema[lc.Idx].Type, ct.Schema[rc.Idx].Type
		if !numericKind(lt) || !numericKind(rt) {
			return nil
		}
		return &vecCmpCC{
			lcol: lc.Idx, rcol: rc.Idx,
			lFloats: lt == types.KindFloat, rFloats: rt == types.KindFloat,
			exact: lt == types.KindInt && rt == types.KindInt,
			tt:    tt,
		}
	}
	return nil
}

// codeEqNode lowers string `=`/`!=` against a string constant into a
// direct dictionary-code compare (see compileCmp).
func codeEqNode(ct *colstore.Table, col int, s string, negate bool) vecNode {
	code, ok := ct.Dicts[col].Code(s)
	if !ok {
		miss := TriFalse
		if negate {
			miss = TriTrue
		}
		return &vecCodeConst{col: col, tri: miss}
	}
	return &vecCodeEq{col: col, code: code, negate: negate}
}

// strTableNode builds the per-dictionary-code tri table for `col op
// const` (or `const op col` when flipped).
func strTableNode(ct *colstore.Table, col int, op sqlparser.BinaryOp, k types.Value, flipped bool) vecNode {
	dict := ct.Dicts[col]
	table := make([]uint8, len(dict.Vals))
	ctx := &Ctx{}
	for code, s := range dict.Vals {
		sv := &Const{V: types.NewString(s)}
		var probe Expr
		if flipped {
			probe = &Binary{Op: op, L: &Const{V: k}, R: sv}
		} else {
			probe = &Binary{Op: op, L: sv, R: &Const{V: k}}
		}
		table[code] = triOf(probe.Eval(ctx))
	}
	return &vecStrTable{col: col, table: table}
}

// --- nodes ---

type vecConst struct{ tri uint8 }

func (n vecConst) eval(out []uint8, _ *colstore.Segment, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = n.tri
	}
}

type vecTruthy struct {
	col  int
	kind types.Kind
}

func (n *vecTruthy) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	switch n.kind {
	case types.KindInt, types.KindBool:
		for i := lo; i < hi; i++ {
			if c.Null(i) {
				out[i] = TriNull
			} else if c.Ints[i] != 0 {
				out[i] = TriTrue
			} else {
				out[i] = TriFalse
			}
		}
	case types.KindFloat:
		for i := lo; i < hi; i++ {
			if c.Null(i) {
				out[i] = TriNull
			} else if c.Floats[i] != 0 {
				out[i] = TriTrue
			} else {
				out[i] = TriFalse
			}
		}
	case types.KindString:
		// A non-NULL string is never truthy (matches Value.Truthy).
		for i := lo; i < hi; i++ {
			if c.Null(i) {
				out[i] = TriNull
			} else {
				out[i] = TriFalse
			}
		}
	default: // declared-NULL column
		for i := lo; i < hi; i++ {
			out[i] = TriNull
		}
	}
}

var notTable = [3]uint8{TriTrue, TriFalse, TriNull}

type vecNot struct{ x vecNode }

func (n *vecNot) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	n.x.eval(out, seg, lo, hi)
	for i := lo; i < hi; i++ {
		out[i] = notTable[out[i]]
	}
}

type vecIsNull struct {
	col     int
	negated bool
}

func (n *vecIsNull) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	t, f := TriTrue, TriFalse
	if n.negated {
		t, f = f, t
	}
	for i := lo; i < hi; i++ {
		if c.Null(i) {
			out[i] = t
		} else {
			out[i] = f
		}
	}
}

// Kleene tables indexed by l*3+r. Evaluating both sides then combining
// is identical to the row path's short-circuit because operands are pure.
var kleeneAnd = [9]uint8{
	0, 0, 0, // l = false
	0, 1, 2, // l = true
	0, 2, 2, // l = NULL
}

var kleeneOr = [9]uint8{
	0, 1, 2, // l = false
	1, 1, 1, // l = true
	2, 1, 2, // l = NULL
}

type vecLogic struct {
	l, r  vecNode
	tmp   []uint8
	table *[9]uint8
}

func (n *vecLogic) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	n.l.eval(out, seg, lo, hi)
	n.r.eval(n.tmp, seg, lo, hi)
	t := n.table
	for i := lo; i < hi; i++ {
		out[i] = t[out[i]*3+n.tmp[i]]
	}
}

// vecCmpFC: float column vs constant, float compare.
type vecCmpFC struct {
	col int
	k   float64
	tt  [3]uint8
}

func (n *vecCmpFC) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	k, tt := n.k, &n.tt
	if !c.HasNulls() {
		for i := lo; i < hi; i++ {
			v := c.Floats[i]
			j := 1
			if v < k {
				j = 0
			} else if v > k {
				j = 2
			}
			out[i] = tt[j]
		}
		return
	}
	for i := lo; i < hi; i++ {
		if c.Null(i) {
			out[i] = TriNull
			continue
		}
		v := c.Floats[i]
		j := 1
		if v < k {
			j = 0
		} else if v > k {
			j = 2
		}
		out[i] = tt[j]
	}
}

// vecCmpIC: int/bool column vs constant, float compare (mixed numeric
// kinds compare by value as floats, mirroring types.Compare).
type vecCmpIC struct {
	col int
	k   float64
	tt  [3]uint8
}

func (n *vecCmpIC) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	k, tt := n.k, &n.tt
	if !c.HasNulls() {
		for i := lo; i < hi; i++ {
			v := float64(c.Ints[i])
			j := 1
			if v < k {
				j = 0
			} else if v > k {
				j = 2
			}
			out[i] = tt[j]
		}
		return
	}
	for i := lo; i < hi; i++ {
		if c.Null(i) {
			out[i] = TriNull
			continue
		}
		v := float64(c.Ints[i])
		j := 1
		if v < k {
			j = 0
		} else if v > k {
			j = 2
		}
		out[i] = tt[j]
	}
}

// vecCmpII: BIGINT column vs BIGINT constant — exact 64-bit compare
// (mirrors the int/int fast path in types.Compare; no float rounding on
// huge ints).
type vecCmpII struct {
	col int
	k   int64
	tt  [3]uint8
}

func (n *vecCmpII) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	k, tt := n.k, &n.tt
	if !c.HasNulls() {
		for i := lo; i < hi; i++ {
			v := c.Ints[i]
			j := 1
			if v < k {
				j = 0
			} else if v > k {
				j = 2
			}
			out[i] = tt[j]
		}
		return
	}
	for i := lo; i < hi; i++ {
		if c.Null(i) {
			out[i] = TriNull
			continue
		}
		v := c.Ints[i]
		j := 1
		if v < k {
			j = 0
		} else if v > k {
			j = 2
		}
		out[i] = tt[j]
	}
}

// vecCmpCC: numeric column vs numeric column.
type vecCmpCC struct {
	lcol, rcol       int
	lFloats, rFloats bool
	exact            bool // both BIGINT: exact int64 compare
	tt               [3]uint8
}

func (n *vecCmpCC) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	lc, rc := &seg.Cols[n.lcol], &seg.Cols[n.rcol]
	tt := &n.tt
	for i := lo; i < hi; i++ {
		if lc.Null(i) || rc.Null(i) {
			out[i] = TriNull
			continue
		}
		j := 1
		if n.exact {
			a, b := lc.Ints[i], rc.Ints[i]
			if a < b {
				j = 0
			} else if a > b {
				j = 2
			}
		} else {
			var a, b float64
			if n.lFloats {
				a = lc.Floats[i]
			} else {
				a = float64(lc.Ints[i])
			}
			if n.rFloats {
				b = rc.Floats[i]
			} else {
				b = float64(rc.Ints[i])
			}
			if a < b {
				j = 0
			} else if a > b {
				j = 2
			}
		}
		out[i] = tt[j]
	}
}

// vecStrTable: dictionary-encoded column against a constant, answered
// by a precomputed per-code tri table.
type vecStrTable struct {
	col   int
	table []uint8
}

func (n *vecStrTable) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	if !c.HasNulls() {
		for i := lo; i < hi; i++ {
			out[i] = n.table[c.Codes[i]]
		}
		return
	}
	for i := lo; i < hi; i++ {
		if c.Null(i) {
			out[i] = TriNull
		} else {
			out[i] = n.table[c.Codes[i]]
		}
	}
}

// vecCodeEq: dictionary-encoded column `=`/`!=` one resolved code.
type vecCodeEq struct {
	col    int
	code   uint32
	negate bool
}

func (n *vecCodeEq) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	t, f := TriTrue, TriFalse
	if n.negate {
		t, f = f, t
	}
	if !c.HasNulls() {
		for i := lo; i < hi; i++ {
			if c.Codes[i] == n.code {
				out[i] = t
			} else {
				out[i] = f
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		if c.Null(i) {
			out[i] = TriNull
		} else if c.Codes[i] == n.code {
			out[i] = t
		} else {
			out[i] = f
		}
	}
}

// vecCodeConst: the constant string is absent from the dictionary —
// every non-NULL row gets the folded answer, NULL rows stay NULL.
type vecCodeConst struct {
	col int
	tri uint8
}

func (n *vecCodeConst) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	c := &seg.Cols[n.col]
	if !c.HasNulls() {
		for i := lo; i < hi; i++ {
			out[i] = n.tri
		}
		return
	}
	for i := lo; i < hi; i++ {
		if c.Null(i) {
			out[i] = TriNull
		} else {
			out[i] = n.tri
		}
	}
}
