// Numeric segment kernels: the arithmetic counterpart of Kernel. An
// aggregate argument such as `supplycost * availqty` — Col leaves over
// clean INT/DOUBLE/BOOLEAN columns, numeric or NULL constants, binary
// + - * / % and unary minus — is lowered once into a tree of typed loop
// nodes that compute a whole colstore segment range into a typed bank
// plus a NULL bitmap: the layout of a stored column, so the columnar
// fold reads a computed argument exactly where it reads a stored one.
//
// The contract is bit-identity with Eval on every row, by mirroring
// evalArith and Neg.Eval:
//
//   - every node has a static result kind: INT∘INT under + - * % is a
//     wrapping int64, every other combination (BOOLEAN operands and
//     INT/INT division included) is float64 through AsFloat;
//   - a NULL operand, or a zero divisor under / or %, gives NULL;
//   - float % is math.Mod; unary minus of a BOOLEAN is NULL;
//   - constant subtrees fold at compile through Eval itself.
//
// Anything else — CASE, function calls, params, comparisons, strings,
// mixed-kind columns — makes CompileNumKernel return nil and the caller
// stays on the per-row path.
package expr

import (
	"math"
	"strconv"

	"fluodb/internal/colstore"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// NumKernel is a compiled segment-at-a-time numeric evaluator. It owns
// its nodes' output banks, so — like Kernel — it is NOT safe for
// concurrent use: compile one per worker.
type NumKernel struct {
	root numNode
	key  string
}

// CompileNumKernel lowers e into a numeric kernel over ct's layout, or
// returns nil if any part of e falls outside the compilable subset.
func CompileNumKernel(e Expr, ct *colstore.Table) *NumKernel {
	if ct == nil {
		return nil
	}
	n, key := compileNum(e, ct)
	if n == nil {
		return nil
	}
	return &NumKernel{root: n, key: key}
}

// Kind is the static result kind: KindInt or KindBool (read Ints),
// KindFloat (read Floats), or KindNull (every row NULL).
func (k *NumKernel) Kind() types.Kind { return k.root.kind() }

// Key identifies the computation: kernels with equal keys yield
// identical columns on every segment. It is Expr.String() with
// constants tagged by kind and bits (String renders INT 1 and DOUBLE
// 1.0 alike, which compute differently) after constant folding.
func (k *NumKernel) Key() string { return k.key }

// Eval computes segment rows [lo,hi) and returns the column holding
// them. Only rows [lo,hi) of the result are defined, until the next
// Eval; a bare column reference returns seg's own column.
func (k *NumKernel) Eval(seg *colstore.Segment, lo, hi int) *colstore.Col {
	return k.root.eval(seg, lo, hi)
}

// MemBytes is the kernel's resident scratch: its nodes' output banks
// and bitmaps (allocated on first Eval).
func (k *NumKernel) MemBytes() int64 { return k.root.memBytes() }

type numNode interface {
	eval(seg *colstore.Segment, lo, hi int) *colstore.Col
	kind() types.Kind
	memBytes() int64
}

func compileNum(e Expr, ct *colstore.Table) (numNode, string) {
	switch x := e.(type) {
	case *Const:
		if x.V.Kind() == types.KindString {
			return nil, ""
		}
		return constNum(x.V, ct.SegSize)
	case *Col:
		if !cleanCol(ct, x.Idx) {
			return nil, ""
		}
		switch k := ct.Schema[x.Idx].Type; k {
		case types.KindInt, types.KindFloat, types.KindBool:
			return &numCol{col: x.Idx, k: k}, "#" + strconv.Itoa(x.Idx)
		case types.KindNull:
			return constNum(types.Null, ct.SegSize) // declared-NULL column
		}
		return nil, ""
	case *Neg:
		inner, key := compileNum(x.X, ct)
		if inner == nil {
			return nil, ""
		}
		if c, ok := inner.(*numConst); ok {
			return constNum((&Neg{X: &Const{V: c.v}}).Eval(&Ctx{}), ct.SegSize)
		}
		if k := inner.kind(); k == types.KindInt || k == types.KindFloat {
			return &numNeg{x: inner, size: ct.SegSize}, "(-" + key + ")"
		}
		return constNum(types.Null, ct.SegSize) // -BOOLEAN is NULL
	case *Binary:
		switch x.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		default:
			return nil, ""
		}
		l, lkey := compileNum(x.L, ct)
		if l == nil {
			return nil, ""
		}
		r, rkey := compileNum(x.R, ct)
		if r == nil {
			return nil, ""
		}
		lc, lok := l.(*numConst)
		rc, rok := r.(*numConst)
		if lok && rok {
			return constNum((&Binary{Op: x.Op, L: &Const{V: lc.v}, R: &Const{V: rc.v}}).Eval(&Ctx{}), ct.SegSize)
		}
		if l.kind() == types.KindNull || r.kind() == types.KindNull {
			return constNum(types.Null, ct.SegSize)
		}
		k := types.KindFloat
		if l.kind() == types.KindInt && r.kind() == types.KindInt && x.Op != sqlparser.OpDiv {
			k = types.KindInt
		}
		return &numArith{op: x.Op, l: l, r: r, k: k, size: ct.SegSize},
			"(" + lkey + " " + x.Op.String() + " " + rkey + ")"
	}
	return nil, ""
}

// constNum builds a constant leaf and its kind-tagged key.
func constNum(v types.Value, size int) (numNode, string) {
	var key string
	switch v.Kind() {
	case types.KindInt:
		key = "i" + strconv.FormatInt(v.Int(), 10)
	case types.KindFloat:
		key = "f" + strconv.FormatUint(math.Float64bits(v.Float()), 16)
	case types.KindBool:
		key = "b" + strconv.FormatBool(v.Bool())
	default:
		key = "null"
	}
	return &numConst{v: v, size: size}, key
}

// bank returns *b, allocated to size on first use.
func bank[T int64 | float64 | uint64](b *[]T, size int) []T {
	if *b == nil {
		*b = make([]T, size)
	}
	return *b
}

func setNull(nulls []uint64, i int) { nulls[i>>6] |= 1 << (uint(i) & 63) }

// numCol reads a stored column in place.
type numCol struct {
	col int
	k   types.Kind
}

func (n *numCol) eval(seg *colstore.Segment, _, _ int) *colstore.Col { return &seg.Cols[n.col] }
func (n *numCol) kind() types.Kind                                   { return n.k }
func (n *numCol) memBytes() int64                                    { return 0 }

// numConst is a constant broadcast over a whole segment, filled once.
type numConst struct {
	v      types.Value
	size   int
	filled bool
	out    colstore.Col
}

func (n *numConst) kind() types.Kind { return n.v.Kind() }

func (n *numConst) eval(*colstore.Segment, int, int) *colstore.Col {
	if !n.filled {
		n.filled = true
		switch n.v.Kind() {
		case types.KindInt, types.KindBool:
			var x int64 // a BOOLEAN bank holds 0/1, as in colstore
			if n.v.Kind() == types.KindInt {
				x = n.v.Int()
			} else if n.v.Bool() {
				x = 1
			}
			ints := bank(&n.out.Ints, n.size)
			for i := range ints {
				ints[i] = x
			}
		case types.KindFloat:
			fs := bank(&n.out.Floats, n.size)
			for i := range fs {
				fs[i] = n.v.Float()
			}
		default:
			all := make([]uint64, (n.size+63)/64)
			for i := range all {
				all[i] = ^uint64(0)
			}
			n.out.SetNullWords(all)
		}
	}
	return &n.out
}

func (n *numConst) memBytes() int64 {
	return 8 * int64(cap(n.out.Ints)+cap(n.out.Floats)+cap(n.out.NullWords()))
}

// numNeg is unary minus over an INT or DOUBLE operand; NULLs pass
// through (the operand's bitmap is shared).
type numNeg struct {
	x    numNode
	size int
	out  colstore.Col
}

func (n *numNeg) kind() types.Kind { return n.x.kind() }

func (n *numNeg) eval(seg *colstore.Segment, lo, hi int) *colstore.Col {
	c := n.x.eval(seg, lo, hi)
	if n.x.kind() == types.KindFloat {
		out := bank(&n.out.Floats, n.size)
		for i := lo; i < hi; i++ {
			out[i] = -c.Floats[i]
		}
	} else {
		out := bank(&n.out.Ints, n.size)
		for i := lo; i < hi; i++ {
			out[i] = -c.Ints[i]
		}
	}
	n.out.SetNullWords(c.NullWords())
	return &n.out
}

func (n *numNeg) memBytes() int64 {
	return 8*int64(cap(n.out.Ints)+cap(n.out.Floats)) + n.x.memBytes()
}

// numArith is a binary arithmetic node of static result kind k.
type numArith struct {
	op    sqlparser.BinaryOp
	l, r  numNode
	k     types.Kind
	size  int
	out   colstore.Col
	nulls []uint64
}

func (n *numArith) kind() types.Kind { return n.k }

func (n *numArith) eval(seg *colstore.Segment, lo, hi int) *colstore.Col {
	l, r := n.l.eval(seg, lo, hi), n.r.eval(seg, lo, hi)
	ln, rn := l.NullWords(), r.NullWords()
	var nulls []uint64
	if ln != nil || rn != nil || n.op == sqlparser.OpDiv || n.op == sqlparser.OpMod {
		// The operands' NULLs, word-wise over the range; zero divisors add
		// theirs below. Bits outside [lo,hi) are don't-cares.
		nulls = bank(&n.nulls, (n.size+63)/64)
		for w := lo >> 6; w <= (hi-1)>>6; w++ {
			var x uint64
			if ln != nil {
				x = ln[w]
			}
			if rn != nil {
				x |= rn[w]
			}
			nulls[w] = x
		}
	}
	if n.k == types.KindInt {
		intArith(n.op, bank(&n.out.Ints, n.size), l.Ints, r.Ints, nulls, lo, hi)
	} else {
		out := bank(&n.out.Floats, n.size)
		lf, rf := n.l.kind() == types.KindFloat, n.r.kind() == types.KindFloat
		switch {
		case lf && rf:
			floatArith(n.op, out, l.Floats, r.Floats, nulls, lo, hi)
		case lf:
			floatArith(n.op, out, l.Floats, r.Ints, nulls, lo, hi)
		case rf:
			floatArith(n.op, out, l.Ints, r.Floats, nulls, lo, hi)
		default:
			floatArith(n.op, out, l.Ints, r.Ints, nulls, lo, hi)
		}
	}
	n.out.SetNullWords(nulls)
	return &n.out
}

func (n *numArith) memBytes() int64 {
	return 8*int64(cap(n.out.Ints)+cap(n.out.Floats)+cap(n.nulls)) +
		n.l.memBytes() + n.r.memBytes()
}

// intArith is evalArith's INT∘INT branch: wrapping + - *, and % with a
// zero divisor NULL (MinInt64 % -1 is 0 in Go, as in the row path).
func intArith(op sqlparser.BinaryOp, out, l, r []int64, nulls []uint64, lo, hi int) {
	switch op {
	case sqlparser.OpAdd:
		for i := lo; i < hi; i++ {
			out[i] = l[i] + r[i]
		}
	case sqlparser.OpSub:
		for i := lo; i < hi; i++ {
			out[i] = l[i] - r[i]
		}
	case sqlparser.OpMul:
		for i := lo; i < hi; i++ {
			out[i] = l[i] * r[i]
		}
	case sqlparser.OpMod:
		for i := lo; i < hi; i++ {
			if r[i] == 0 {
				setNull(nulls, i)
				continue
			}
			out[i] = l[i] % r[i]
		}
	}
}

// floatArith is evalArith's float branch, with each operand read as
// float64 from its bank (AsFloat: BOOLEAN banks hold 0/1).
func floatArith[L, R int64 | float64](op sqlparser.BinaryOp, out []float64, l []L, r []R, nulls []uint64, lo, hi int) {
	switch op {
	case sqlparser.OpAdd:
		for i := lo; i < hi; i++ {
			out[i] = float64(l[i]) + float64(r[i])
		}
	case sqlparser.OpSub:
		for i := lo; i < hi; i++ {
			out[i] = float64(l[i]) - float64(r[i])
		}
	case sqlparser.OpMul:
		for i := lo; i < hi; i++ {
			out[i] = float64(l[i]) * float64(r[i])
		}
	case sqlparser.OpDiv:
		for i := lo; i < hi; i++ {
			b := float64(r[i])
			if b == 0 {
				setNull(nulls, i)
				continue
			}
			out[i] = float64(l[i]) / b
		}
	case sqlparser.OpMod:
		for i := lo; i < hi; i++ {
			b := float64(r[i])
			if b == 0 {
				setNull(nulls, i)
				continue
			}
			out[i] = math.Mod(float64(l[i]), b)
		}
	}
}
