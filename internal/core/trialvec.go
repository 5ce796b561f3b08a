package core

import (
	"math"

	"fluodb/internal/colstore"
	"fluodb/internal/expr"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// Expressions lowered over the trial axis. Snapshot-time evaluation asks
// the same question 1+Trials times — under the point bindings and under
// each bootstrap trial's — about one row. The interpreter answers it
// with 1+Trials tree walks, each re-deriving the row's parameter key and
// re-probing the binding maps. A lowered expression walks the tree once
// per row: row-only subtrees are evaluated once, every parameter key is
// resolved once to its whole replica vector, and the remaining work is
// float and tri-state loops over the axis.
//
// The axis: column 0 binds the point estimates, column 1+j trial j.
//
// Exactness is the contract. Vector lanes carry float64 or NULL only;
// that covers every value a CLT-estimable aggregate or arithmetic over
// one can produce. A lane asked to carry anything else (an integer
// MIN, a string) makes the node refuse at run time, and the caller
// evaluates that row through the interpreter instead — as it does for
// every expression shape compile refuses (CASE, calls, LIKE, %, IN
// lists, params in a key position). Within lanes the operators are the
// interpreter's own: Kleene AND/OR/NOT, NULL-propagating arithmetic with
// x/0 = NULL, and types.Compare's float ordering (NaN compares equal).
// AND/OR evaluate both sides; operands are pure, so the only observable
// difference is which replica vectors get materialized (and cached).
//
// Parameter keys resolve by value to the binding's group id (pubKeys),
// and the node then reads the binding's arrays and replica vectors by
// that id; a key the binding did not publish reads a NULL point and the
// replica vector of its own bucket (pubKeys.repID). By ordinal: when the caller places the row in the block's
// columnar encoding (tvEnv.seg, for a cached row at its stored fact
// ordinal), a WHERE program reads the row's columns without the row. A
// column operand reads its bank, and a correlated or membership
// parameter keyed by one column takes its key from the bank; across the
// trial columns it finds the key by the stored word (tvKeys), so each
// key resolves to its id once per evaluation epoch.

// tvEnv is what a lowered expression reads besides its own tree.
type tvEnv struct {
	bind *bindings
	// row feeds the row-only subtrees and the parameter keys: a cached
	// uncertain row for WHERE programs, a group's point post-aggregate
	// row for HAVING/SELECT programs.
	row types.Row
	ctx expr.Ctx // parameter-free context over row
	// scal holds each scalar parameter over the axis, refreshed once per
	// evaluation window (snapEval.prepare).
	scal []scalarVec
	// slotF/slotNull hold the current group's finalized aggregate slots
	// over the axis, indexed [agg*stride + column] (HAVING/SELECT
	// programs only).
	slotF    []float64
	slotNull []bool
	stride   int
	key      types.Row // parameter-key scratch
	// seg/i place row in the columnar encoding ct (seg nil: read the row
	// itself). epoch advances with every evaluation window, invalidating
	// the key vectors resolved by ordinal.
	ct    *colstore.Table
	seg   *colstore.Segment
	i     int
	epoch uint32
}

// ordinal reports whether column c of the current row reads from its
// bank at the row's ordinal.
func (env *tvEnv) ordinal(c int) bool {
	return env.seg != nil && c >= 0 && c < len(env.ct.Schema) && !env.ct.Mixed[c]
}

// argAt reads aggregate input column c at the row's ordinal as a banked
// fold gates it (onlineTable.fold): a COUNT input counts when non-NULL,
// a SUM/AVG input when numeric.
func (env *tvEnv) argAt(c int, count bool) (float64, bool) {
	col := &env.seg.Cols[c]
	if col.Null(env.i) {
		return 0, false
	}
	switch {
	case count:
		return 0, true
	case col.Floats != nil:
		return col.Floats[env.i], true
	case col.Ints != nil: // int and bool banks
		return float64(col.Ints[env.i]), true
	}
	return 0, false // a string is not numeric
}

// keyAt returns the one-column key of column c's stored value at the
// row's ordinal (the row's own key: the encoding round-trips every
// value).
func (env *tvEnv) keyAt(c int) types.Row {
	env.key = append(env.key[:0], env.ct.Value(env.seg, c, env.i))
	return env.key
}

// scalarVec is one scalar parameter over the axis.
type scalarVec struct {
	f     []float64
	null  []bool
	clean bool // every non-NULL value is a float
}

// refreshScalars re-reads every scalar binding into axis vectors.
func (env *tvEnv) refreshScalars(width int) {
	b := env.bind
	if env.scal == nil {
		env.scal = make([]scalarVec, len(b.scalars))
		for i := range env.scal {
			env.scal[i] = scalarVec{f: make([]float64, width), null: make([]bool, width)}
		}
	}
	for i, s := range b.scalars {
		sv := &env.scal[i]
		sv.clean = true
		for col := 0; col < width; col++ {
			v := s.point
			if col > 0 {
				v = types.Null
				if col <= len(s.reps) {
					v = s.reps[col-1]
				}
			}
			sv.f[col], sv.null[col] = 0, true
			switch v.Kind() {
			case types.KindNull:
			case types.KindFloat:
				sv.f[col], sv.null[col] = v.Float(), false
			default:
				sv.clean = false
			}
		}
	}
}

// tvBool is a lowered predicate: tri fills and returns its three-valued
// truth (expr.TriTrue/TriFalse/TriNull) over columns [lo,hi). ok=false
// refuses: a lane would have to carry a non-float value.
type tvBool interface {
	tri(env *tvEnv, lo, hi int) (t []uint8, ok bool)
}

// tvNum is a lowered numeric expression over columns [lo,hi).
type tvNum interface {
	num(env *tvEnv, lo, hi int) (f []float64, null []bool, ok bool)
}

// tvCompiler lowers expressions for one block. Columns at or beyond
// slotBase are aggregate slots of the post-aggregate layout (varying
// over the axis); WHERE programs pass a slotBase beyond any column.
type tvCompiler struct {
	bind     *bindings
	width    int // axis width, 1+Trials
	slotBase int
	mem      int64     // bytes of lane scratch handed to nodes
	keys     []*tvKeys // the keyed nodes' key indexes
}

// varies reports whether e's value can differ between axis columns.
func (c *tvCompiler) varies(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		switch n := x.(type) {
		case *expr.ScalarParam, *expr.GroupParam, *expr.SetParam:
			found = true
		case *expr.Col:
			found = found || n.Idx >= c.slotBase
		}
		return !found
	})
	return found
}

func (c *tvCompiler) floats() ([]float64, []bool) {
	c.mem += 9 * int64(c.width)
	return make([]float64, c.width), make([]bool, c.width)
}

func (c *tvCompiler) tris() []uint8 {
	c.mem += int64(c.width)
	return make([]uint8, c.width)
}

// pred lowers a predicate, or returns nil when its shape is outside the
// lowered subset.
func (c *tvCompiler) pred(e expr.Expr) tvBool {
	if !c.varies(e) {
		return &tvInv{e: e, t: c.tris()}
	}
	switch x := e.(type) {
	case *expr.Binary:
		switch x.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			l, r := c.pred(x.L), c.pred(x.R)
			if l == nil || r == nil {
				return nil
			}
			return &tvLogic{and: x.Op == sqlparser.OpAnd, l: l, r: r, t: c.tris()}
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe,
			sqlparser.OpGt, sqlparser.OpGe:
			l, r := c.num(x.L), c.num(x.R)
			if l == nil || r == nil {
				return nil
			}
			// At most one side is invariant (else the comparison is).
			if k, ok := l.(tvInvariant); ok {
				return &tvCmpK{op: expr.FlipOp(x.Op), k: k, x: r, kFirst: true, t: c.tris()}
			}
			if k, ok := r.(tvInvariant); ok {
				return &tvCmpK{op: x.Op, k: k, x: l, t: c.tris()}
			}
			return &tvCmp{op: x.Op, l: l, r: r, t: c.tris()}
		}
	case *expr.Not:
		if in := c.pred(x.X); in != nil {
			return &tvNot{x: in, t: c.tris()}
		}
	case *expr.SetParam:
		if x.Idx >= 0 && x.Idx < len(c.bind.sets) && !c.varies(x.X) {
			return &tvSet{p: x, t: c.tris(), keys: c.keyIndex(x.X)}
		}
	}
	return nil
}

// keyIndex returns a key index for a parameter keyed by e, or nil when e
// is not a single column.
func (c *tvCompiler) keyIndex(e expr.Expr) *tvKeys {
	col, ok := e.(*expr.Col)
	if !ok || col.Idx >= c.slotBase {
		return nil
	}
	k := &tvKeys{col: col.Idx}
	c.keys = append(c.keys, k)
	return k
}

// num lowers a numeric expression, or returns nil.
func (c *tvCompiler) num(e expr.Expr) tvNum {
	if !c.varies(e) {
		n := &tvInv{e: e}
		n.f, n.null = c.floats()
		if col, ok := e.(*expr.Col); ok {
			return &tvCol{tvInv: n, col: col.Idx}
		}
		return n
	}
	switch x := e.(type) {
	case *expr.Col:
		return &tvSlot{a: x.Idx - c.slotBase}
	case *expr.ScalarParam:
		if x.Idx >= 0 && x.Idx < len(c.bind.scalars) {
			return &tvScalar{idx: x.Idx}
		}
	case *expr.GroupParam:
		if x.Idx < 0 || x.Idx >= len(c.bind.groups) {
			return nil
		}
		for _, k := range x.Keys {
			if c.varies(k) {
				return nil
			}
		}
		n := &tvGroup{p: x}
		n.f, n.null = c.floats()
		if len(x.Keys) == 1 {
			n.keys = c.keyIndex(x.Keys[0])
		}
		return n
	case *expr.Neg:
		if in := c.num(x.X); in != nil {
			n := &tvNeg{x: in}
			n.f, n.null = c.floats()
			return n
		}
	case *expr.Binary:
		switch x.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			l, r := c.num(x.L), c.num(x.R)
			if l == nil || r == nil {
				return nil
			}
			n := &tvArith{op: x.Op, l: l, r: r}
			n.f, n.null = c.floats()
			return n
		}
	}
	return nil
}

// tvInv is a subtree whose value is the same in every column: evaluated
// once by the interpreter and broadcast.
type tvInv struct {
	e    expr.Expr
	f    []float64
	null []bool
	t    []uint8
}

func (n *tvInv) eval(env *tvEnv) types.Value {
	env.ctx.Row = env.row
	return n.e.Eval(&env.ctx)
}

func (n *tvInv) tri(env *tvEnv, lo, hi int) ([]uint8, bool) {
	t := triOf(n.eval(env))
	for j := lo; j < hi; j++ {
		n.t[j] = t
	}
	return n.t, true
}

// tvInvariant is a numeric operand with one value in every column
// (tvInv, tvCol): scalar reads it once as a lane — f, or NULL — and
// refuses (ok=false) where num would.
type tvInvariant interface {
	scalar(env *tvEnv) (f float64, null, ok bool)
}

func (n *tvInv) scalar(env *tvEnv) (float64, bool, bool) {
	v := n.eval(env)
	f, isNum := v.AsFloat()
	if !isNum && !v.IsNull() {
		return 0, false, false
	}
	return f, !isNum, true
}

func (n *tvInv) num(env *tvEnv, lo, hi int) ([]float64, []bool, bool) {
	f, null, ok := n.scalar(env)
	return n.broadcast(f, null, ok, lo, hi)
}

func (n *tvInv) broadcast(f float64, null, ok bool, lo, hi int) ([]float64, []bool, bool) {
	if !ok {
		return nil, nil, false
	}
	for j := lo; j < hi; j++ {
		n.f[j], n.null[j] = f, null
	}
	return n.f, n.null, true
}

// tvCol is a column operand: read from its bank by ordinal, else from
// the row as tvInv.
type tvCol struct {
	*tvInv
	col int
}

func (n *tvCol) scalar(env *tvEnv) (float64, bool, bool) {
	if !env.ordinal(n.col) {
		return n.tvInv.scalar(env)
	}
	c := &env.seg.Cols[n.col]
	if c.Null(env.i) {
		return 0, true, true
	}
	switch env.ct.Schema[n.col].Type {
	case types.KindInt, types.KindBool:
		return float64(c.Ints[env.i]), false, true
	case types.KindFloat:
		return c.Floats[env.i], false, true
	}
	return 0, false, false // a string is no float lane (tvInv: AsFloat fails)
}

func (n *tvCol) num(env *tvEnv, lo, hi int) ([]float64, []bool, bool) {
	f, null, ok := n.scalar(env)
	return n.broadcast(f, null, ok, lo, hi)
}

// tvKeys indexes a keyed node's resolved group ids by the stored word of
// its key column at the row's ordinal: entry e (a WordMemo index, or −1
// for the NULL key) was resolved in epoch tag[e], to ids[e] (−1: no
// published group). KeyWord equality is finer than key equality (−0.0
// and 0.0 differ): such words are two entries resolving to one id.
type tvKeys struct {
	col     int
	memo    colstore.WordMemo
	tag     []uint32
	ids     []int32
	nullTag uint32
	nullID  int32
}

// id returns the current row's group id under lookup, resolving its key
// on the entry's first use in env's epoch.
func (k *tvKeys) id(env *tvEnv, lookup func(types.Row) int) int {
	c := &env.seg.Cols[k.col]
	if c.Null(env.i) {
		if k.nullTag != env.epoch {
			k.nullTag, k.nullID = env.epoch, int32(lookup(env.keyAt(k.col)))
		}
		return int(k.nullID)
	}
	var w uint64
	switch env.ct.Schema[k.col].Type {
	case types.KindFloat:
		w = math.Float64bits(c.Floats[env.i])
	case types.KindString:
		w = uint64(c.Codes[env.i])
	default: // int and bool banks
		w = uint64(c.Ints[env.i])
	}
	h := colstore.MemoHash1(w)
	e := k.memo.Find1(w, h)
	if e < 0 {
		words := k.memo.Stage()
		words[0] = w
		e = k.memo.Add(words, h)
		k.tag, k.ids = append(k.tag, 0), append(k.ids, -1)
	}
	if k.tag[e] != env.epoch {
		k.tag[e], k.ids[e] = env.epoch, int32(lookup(env.keyAt(k.col)))
	}
	return int(k.ids[e])
}

// reset drops every entry (the encoding's words changed meaning).
func (k *tvKeys) reset() {
	k.memo.Reset(1)
	k.tag, k.ids = k.tag[:0], k.ids[:0]
	k.nullTag = 0
}

// memBytes is the index's charge: memo, tags and ids.
func (k *tvKeys) memBytes() int64 {
	return k.memo.MemBytes() + 4*int64(cap(k.tag)+cap(k.ids))
}

// triOf is the interpreter's truth of a value as a tri byte.
func triOf(v types.Value) uint8 {
	switch {
	case v.IsNull():
		return expr.TriNull
	case v.Truthy():
		return expr.TriTrue
	}
	return expr.TriFalse
}

func triOfBool(b bool) uint8 {
	if b {
		return expr.TriTrue
	}
	return expr.TriFalse
}

// tvSlot reads one finalized aggregate slot of the current group.
type tvSlot struct{ a int }

func (n *tvSlot) num(env *tvEnv, lo, hi int) ([]float64, []bool, bool) {
	base := n.a * env.stride
	return env.slotF[base : base+env.stride], env.slotNull[base : base+env.stride], true
}

// tvScalar reads a scalar parameter's axis vector.
type tvScalar struct{ idx int }

func (n *tvScalar) num(env *tvEnv, lo, hi int) ([]float64, []bool, bool) {
	sv := &env.scal[n.idx]
	return sv.f, sv.null, sv.clean
}

// tvGroup resolves a correlated parameter: one key resolution per row —
// by ordinal, across the trial columns once per key and epoch (keys) —
// then the group's point and replica vector read by id as floats.
type tvGroup struct {
	p    *expr.GroupParam
	f    []float64
	null []bool
	keys *tvKeys
}

func (n *tvGroup) num(env *tvEnv, lo, hi int) ([]float64, []bool, bool) {
	g := env.bind.groups[n.p.Idx]
	byOrd := n.keys != nil && env.ordinal(n.keys.col)
	// id is the key's published id, or its repID when the trial columns
	// are read by key.
	id := -1
	switch {
	case !byOrd:
		env.ctx.Row = env.row
		env.key = evalKeys(env.key, n.p.Keys, &env.ctx)
		if hi > 1 {
			id = g.keys.repID(env.key)
		} else {
			id = g.lookup(env.key)
		}
	case lo == 0:
		id = g.lookup(env.keyAt(n.keys.col))
	}
	var vs []types.Value
	if hi > 1 {
		if byOrd {
			vs = env.bind.groupReps(n.p.Idx, n.keys.id(env, g.keys.repID))
		} else {
			vs = env.bind.groupReps(n.p.Idx, id)
		}
	}
	for j := lo; j < hi; j++ {
		v := types.Null
		if j == 0 {
			v = g.pointOf(id) // a missing group reads as NULL
		} else if vs != nil {
			v = vs[j-1]
		}
		n.f[j], n.null[j] = 0, true
		switch v.Kind() {
		case types.KindNull:
		case types.KindFloat:
			n.f[j], n.null[j] = v.Float(), false
		default:
			return nil, nil, false
		}
	}
	return n.f, n.null, true
}

// tvSet resolves an IN-subquery membership: one key per row — by
// ordinal, across the trial columns once per key and epoch (keys) — then
// the key's point and per-trial membership read by id.
type tvSet struct {
	p    *expr.SetParam
	t    []uint8
	keys *tvKeys
}

func (n *tvSet) tri(env *tvEnv, lo, hi int) ([]uint8, bool) {
	byOrd := n.keys != nil && env.ordinal(n.keys.col)
	var null bool
	var key types.Row
	if byOrd {
		null = env.seg.Cols[n.keys.col].Null(env.i)
		if !null && lo == 0 {
			key = env.keyAt(n.keys.col)
		}
	} else {
		env.ctx.Row = env.row
		x := n.p.X.Eval(&env.ctx)
		if null = x.IsNull(); !null {
			env.key = append(env.key[:0], x)
			key = env.key
		}
	}
	if null {
		for j := lo; j < hi; j++ {
			n.t[j] = expr.TriNull
		}
		return n.t, true
	}
	s := env.bind.sets[n.p.Idx]
	// id is the key's published id, or its repID when the trial columns
	// are read by key.
	id := -1
	switch {
	case key == nil:
	case hi > 1 && !byOrd:
		id = s.keys.repID(key)
	default:
		id = s.lookup(key)
	}
	if lo == 0 {
		n.t[0] = triOfBool(s.member(id) != n.p.Negated)
		lo = 1
	}
	if lo < hi {
		if byOrd {
			id = n.keys.id(env, s.keys.repID)
		}
		ms := env.bind.setReps(n.p.Idx, id)
		for j := lo; j < hi; j++ {
			n.t[j] = triOfBool((ms != nil && ms[j-1]) != n.p.Negated)
		}
	}
	return n.t, true
}

type tvNeg struct {
	x    tvNum
	f    []float64
	null []bool
}

func (n *tvNeg) num(env *tvEnv, lo, hi int) ([]float64, []bool, bool) {
	f, null, ok := n.x.num(env, lo, hi)
	if !ok {
		return nil, nil, false
	}
	for j := lo; j < hi; j++ {
		n.f[j], n.null[j] = -f[j], null[j]
	}
	return n.f, n.null, true
}

type tvArith struct {
	op   sqlparser.BinaryOp
	l, r tvNum
	f    []float64
	null []bool
}

func (n *tvArith) num(env *tvEnv, lo, hi int) ([]float64, []bool, bool) {
	lf, ln, ok := n.l.num(env, lo, hi)
	if !ok {
		return nil, nil, false
	}
	rf, rn, ok := n.r.num(env, lo, hi)
	if !ok {
		return nil, nil, false
	}
	for j := lo; j < hi; j++ {
		if ln[j] || rn[j] {
			n.null[j] = true
			continue
		}
		n.null[j] = false
		switch n.op {
		case sqlparser.OpAdd:
			n.f[j] = lf[j] + rf[j]
		case sqlparser.OpSub:
			n.f[j] = lf[j] - rf[j]
		case sqlparser.OpMul:
			n.f[j] = lf[j] * rf[j]
		default: // OpDiv
			if rf[j] == 0 {
				n.null[j] = true
				continue
			}
			n.f[j] = lf[j] / rf[j]
		}
	}
	return n.f, n.null, true
}

type tvCmp struct {
	op   sqlparser.BinaryOp
	l, r tvNum
	t    []uint8
}

func (n *tvCmp) tri(env *tvEnv, lo, hi int) ([]uint8, bool) {
	lf, ln, ok := n.l.num(env, lo, hi)
	if !ok {
		return nil, false
	}
	rf, rn, ok := n.r.num(env, lo, hi)
	if !ok {
		return nil, false
	}
	for j := lo; j < hi; j++ {
		if ln[j] || rn[j] {
			n.t[j] = expr.TriNull
			continue
		}
		// types.Compare on two numerics that are not both integers.
		a, b := lf[j], rf[j]
		var holds bool
		switch n.op {
		case sqlparser.OpEq:
			holds = !(a < b) && !(a > b)
		case sqlparser.OpNe:
			holds = a < b || a > b
		case sqlparser.OpLt:
			holds = a < b
		case sqlparser.OpLe:
			holds = !(a > b)
		case sqlparser.OpGt:
			holds = a > b
		default: // OpGe
			holds = !(a < b)
		}
		n.t[j] = triOfBool(holds)
	}
	return n.t, true
}

// tvCmpK is tvCmp with one invariant side k, moved to the right (FlipOp:
// types.Compare's ordering is antisymmetric): k is read once, and one
// loop per operator compares the other side's lanes against it with
// tvCmp's formulas, which give types.Compare's NaN ordering. The
// operands still run in source order (kFirst), as tvCmp runs them.
type tvCmpK struct {
	op     sqlparser.BinaryOp
	k      tvInvariant
	x      tvNum
	kFirst bool
	t      []uint8
}

func (n *tvCmpK) tri(env *tvEnv, lo, hi int) ([]uint8, bool) {
	var (
		f         []float64
		null      []bool
		k         float64
		kNull, ok bool
	)
	if n.kFirst {
		if k, kNull, ok = n.k.scalar(env); !ok {
			return nil, false
		}
	}
	if f, null, ok = n.x.num(env, lo, hi); !ok {
		return nil, false
	}
	if !n.kFirst {
		if k, kNull, ok = n.k.scalar(env); !ok {
			return nil, false
		}
	}
	t := n.t[lo:hi]
	if kNull {
		for j := range t {
			t[j] = expr.TriNull
		}
		return n.t, true
	}
	f, null = f[lo:hi], null[lo:hi]
	switch n.op {
	// a < k and a > k never both hold, so tvCmp's !(a < k) && !(a > k)
	// is (a < k) == (a > k), which needs no branch, and a < k || a > k
	// is their difference.
	case sqlparser.OpEq:
		for j, a := range f {
			t[j] = laneTri((a < k) == (a > k), null[j])
		}
	case sqlparser.OpNe:
		for j, a := range f {
			t[j] = laneTri((a < k) != (a > k), null[j])
		}
	case sqlparser.OpLt:
		for j, a := range f {
			t[j] = laneTri(a < k, null[j])
		}
	case sqlparser.OpLe:
		for j, a := range f {
			t[j] = laneTri(!(a > k), null[j])
		}
	case sqlparser.OpGt:
		for j, a := range f {
			t[j] = laneTri(a > k, null[j])
		}
	default: // OpGe
		for j, a := range f {
			t[j] = laneTri(!(a < k), null[j])
		}
	}
	return n.t, true
}

// laneTri is one compared lane's byte: NULL when the lane is. It picks
// in an int, which the compiler selects without a branch (it emits no
// conditional move on bytes).
func laneTri(holds, null bool) uint8 {
	t := int(expr.TriFalse)
	if holds {
		t = int(expr.TriTrue)
	}
	if null {
		t = int(expr.TriNull)
	}
	return uint8(t)
}

type tvLogic struct {
	and  bool
	l, r tvBool
	t    []uint8
}

func (n *tvLogic) tri(env *tvEnv, lo, hi int) ([]uint8, bool) {
	l, ok := n.l.tri(env, lo, hi)
	if !ok {
		return nil, false
	}
	r, ok := n.r.tri(env, lo, hi)
	if !ok {
		return nil, false
	}
	// Kleene: the absorbing value (false for AND, true for OR) wins, then
	// NULL, else the neutral value.
	absorb, neutral := expr.TriTrue, expr.TriFalse
	if n.and {
		absorb, neutral = expr.TriFalse, expr.TriTrue
	}
	for j := lo; j < hi; j++ {
		switch {
		case l[j] == absorb || r[j] == absorb:
			n.t[j] = absorb
		case l[j] == expr.TriNull || r[j] == expr.TriNull:
			n.t[j] = expr.TriNull
		default:
			n.t[j] = neutral
		}
	}
	return n.t, true
}

type tvNot struct {
	x tvBool
	t []uint8
}

func (n *tvNot) tri(env *tvEnv, lo, hi int) ([]uint8, bool) {
	x, ok := n.x.tri(env, lo, hi)
	if !ok {
		return nil, false
	}
	for j := lo; j < hi; j++ {
		switch x[j] {
		case expr.TriTrue:
			n.t[j] = expr.TriFalse
		case expr.TriFalse:
			n.t[j] = expr.TriTrue
		default:
			n.t[j] = expr.TriNull
		}
	}
	return n.t, true
}
