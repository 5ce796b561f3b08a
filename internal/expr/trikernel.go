// Tri-state classification kernels: the vectorized counterpart of the
// engine's interval-semantics predicate evaluation (core's evalTri).
// Where Kernel answers certain predicates, TriKernel answers predicates
// that reference still-converging nested aggregates: each row's byte is
// TriTrue when the predicate holds for every value the uncertain
// parameters may still take, TriFalse when it fails for every value,
// and TriNull ("uncertain") otherwise — byte-for-byte the engine's
// triTrue/triFalse/triUnknown encoding.
//
// Parameter-bearing parts come in two forms, and the per-row loop
// touches only typed banks and small per-key tables:
//
//   - Slots: a row-free parameter side (scalar params, constants) has
//     one variation range per mini-batch; the caller evaluates it and
//     injects it via SetRange.
//   - Keyed slots: a parameter-bearing subtree whose column reads are
//     all one clean fact column K (a correlated `0.5 * AVG(...)` keyed
//     by partkey, `orderkey IN (...)`, `$0 + b`) has a value that
//     depends on K's stored value alone. A numeric subtree gives a
//     per-key variation range, a predicate a per-key tri. Rows map to a
//     dense key index through K's KeyWord and a persistent WordMemo
//     (NULL has its own entry), and each key's value is resolved at
//     most once per epoch by the caller's KeyResolver, which runs the
//     interpreter on that row. KeyWord equality is finer than
//     types.Equal (−0.0 and 0.0 get distinct words), which only costs a
//     second resolution. The caller starts an epoch (NewEpoch) wherever
//     the bindings may have moved.
//
// The compilable subset mirrors evalTri exactly:
//
//   - a param-free subtree collapses to its point truth (NULL → false),
//     lowered through compileVec;
//   - AND/OR/NOT combine with the same Kleene tables (Unknown and NULL
//     share byte 2, and the tables coincide);
//   - comparisons evaluate interval sides: a constant folds at compile,
//     a clean column is a per-row point (NULL → range-NULL; a string
//     column is range-unknown when non-NULL, matching the row path's
//     AsFloat failure), a row-free param side is a slot and a one-column
//     param side a keyed slot;
//   - set membership over one clean column is a keyed predicate;
//   - any other param-bearing node the row path answers with a
//     row-independent triUnknown compiles to a constant. A param side
//     or membership subject reading two or more columns, a mixed
//     column or a column outside the table refuses compilation (nil),
//     and the caller stays on the per-row path.
package expr

import (
	"math"

	"fluodb/internal/colstore"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// Slot range statuses, mirroring the engine's rangeStatus values.
const (
	RangeOK      uint8 = 0 // [Lo, Hi] is a meaningful bound
	RangeNull    uint8 = 1 // the value is SQL NULL (comparisons are false)
	RangeUnknown uint8 = 2 // unbounded → comparison outcome is uncertain
)

// slotRange is one injected or resolved variation range. A keyed
// predicate keeps its tri byte in status.
type slotRange struct {
	lo, hi float64
	status uint8
}

// KeyedSlot is one keyed parameter subtree: Expr reads only its key
// column, and its value is a variation range, or a tri when Pred is set.
type KeyedSlot struct {
	Expr Expr
	Pred bool
}

// KeyResolver evaluates keyed slot s on segment-local row i of seg: the
// variation range (lo, hi, status) of a numeric slot, or the tri byte
// of a predicate slot in status. It runs once per key per epoch.
type KeyResolver func(s int, seg *colstore.Segment, i int) (lo, hi float64, status uint8)

// keyedSlot is one keyed slot's per-key table. Memo entry e's value is
// current when cur[e]>>2 equals the kernel's epoch; a predicate keeps
// its tri in cur[e]'s low two bits, a numeric slot its range in rng[e].
// NULL keys share nullCur/nullRng.
type keyedSlot struct {
	col     int
	kind    types.Kind
	pred    bool
	memo    colstore.WordMemo
	cur     []uint32
	rng     []slotRange
	nullCur uint32
	nullRng slotRange
}

// epochLimit bounds the epoch so it fits cur's upper 30 bits.
const epochLimit = 1 << 30

// triState carries the injected slot ranges and the keyed slots' tables,
// shared by reference with every compiled node.
type triState struct {
	ranges  []slotRange
	keyed   []keyedSlot
	epoch   uint32
	resolve KeyResolver
}

// keyedAt returns keyed slot s's value for segment-local row i (a
// predicate's tri in status), resolving it on the first sight of the
// row's key this epoch. Without a resolver every keyed value is
// unknown.
func (st *triState) keyedAt(s int, seg *colstore.Segment, i int) slotRange {
	ks := &st.keyed[s]
	c := &seg.Cols[ks.col]
	cur, rng := &ks.nullCur, &ks.nullRng
	if !c.Null(i) {
		var w uint64
		switch ks.kind {
		case types.KindFloat:
			w = math.Float64bits(c.Floats[i])
		case types.KindString:
			w = uint64(c.Codes[i])
		default: // int and bool banks
			w = uint64(c.Ints[i])
		}
		h := colstore.MemoHash1(w)
		e := ks.memo.Find1(w, h)
		if e < 0 {
			words := ks.memo.Stage()
			words[0] = w
			e = ks.memo.Add(words, h)
			ks.cur = append(ks.cur, 0)
			if !ks.pred {
				ks.rng = append(ks.rng, slotRange{})
			}
		}
		cur = &ks.cur[e]
		if !ks.pred {
			rng = &ks.rng[e]
		}
	}
	tag := st.epoch << 2
	if *cur&^3 != tag {
		v := st.resolveAt(s, seg, i)
		if ks.pred {
			*cur = tag | uint32(v.status&3)
			return v
		}
		*cur, *rng = tag, v
	}
	if ks.pred {
		return slotRange{status: uint8(*cur & 3)}
	}
	return *rng
}

func (st *triState) resolveAt(s int, seg *colstore.Segment, i int) slotRange {
	if st.resolve == nil {
		return slotRange{status: RangeUnknown}
	}
	lo, hi, status := st.resolve(s, seg, i)
	return slotRange{lo: lo, hi: hi, status: status}
}

// TriKernel is a compiled segment-at-a-time tri-state classifier. Like
// Kernel it owns scratch, injected state and the keyed memos, so compile
// one per worker.
type TriKernel struct {
	root    triNode
	slots   []Expr
	keyedEx []KeyedSlot
	st      *triState
}

// CompileTriKernel lowers e into a tri-state kernel over ct's layout, or
// returns nil if any part of e falls outside the compilable subset.
func CompileTriKernel(e Expr, ct *colstore.Table) *TriKernel {
	if ct == nil {
		return nil
	}
	k := &TriKernel{st: &triState{epoch: 1}}
	n := k.compileTri(e, ct)
	if n == nil {
		return nil
	}
	k.root = n
	return k
}

// Slots returns the row-free parameter-side expressions whose variation
// ranges the caller must inject (SetRange, same index) before EvalInto.
// Slot expressions contain no column reads, so evaluating their ranges
// needs no row.
func (k *TriKernel) Slots() []Expr { return k.slots }

// Keyed returns the keyed slots, indexed as the resolver's s.
func (k *TriKernel) Keyed() []KeyedSlot { return k.keyedEx }

// SetRange injects slot's variation range for the current mini-batch.
func (k *TriKernel) SetRange(slot int, lo, hi float64, status uint8) {
	k.st.ranges[slot] = slotRange{lo: lo, hi: hi, status: status}
}

// SetResolver installs the keyed slots' resolver.
func (k *TriKernel) SetResolver(f KeyResolver) { k.st.resolve = f }

// NewEpoch invalidates every resolved keyed value: the next row of each
// key resolves again. The memos (key word → index) persist.
func (k *TriKernel) NewEpoch() {
	k.st.epoch++
	if k.st.epoch == epochLimit {
		for s := range k.st.keyed {
			ks := &k.st.keyed[s]
			clear(ks.cur)
			ks.nullCur = 0
		}
		k.st.epoch = 1
	}
}

// EvalInto fills out[lo:hi] (segment-local indexes) with the tri-state
// classification of each row of seg under the injected slot ranges.
func (k *TriKernel) EvalInto(out []uint8, seg *colstore.Segment, lo, hi int) {
	k.root.eval(out, seg, lo, hi)
}

// EvalRows fills out[j] with the classification of segment-local row
// rows[j] of seg, for at most the table's segment size of rows (an
// uncertain cache re-examined in place).
func (k *TriKernel) EvalRows(out []uint8, seg *colstore.Segment, rows []int32) {
	if len(rows) > 0 {
		k.root.gather(out[:len(rows)], seg, rows)
	}
}

// MemBytes is the keyed slots' pinned size: memos and per-key values.
func (k *TriKernel) MemBytes() int64 {
	var b int64
	for s := range k.st.keyed {
		ks := &k.st.keyed[s]
		b += ks.memo.MemBytes() + 4*int64(cap(ks.cur)) + 24*int64(cap(ks.rng))
	}
	return b
}

// triNode is one compiled node: eval fills a segment range, gather
// fills out[j] for segment-local row rows[j].
type triNode interface {
	vecNode
	gather(out []uint8, seg *colstore.Segment, rows []int32)
}

func (k *TriKernel) compileTri(e Expr, ct *colstore.Table) triNode {
	if !HasParams(e) {
		// Param-free subtree: the row path evaluates it pointwise and
		// maps NULL to false (triFromBool of Truthy).
		inner := compileVec(e, ct)
		if inner == nil {
			return nil
		}
		return &triCollapse{x: inner, span: make([]uint8, ct.SegSize)}
	}
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			l := k.compileTri(x.L, ct)
			if l == nil {
				return nil
			}
			r := k.compileTri(x.R, ct)
			if r == nil {
				return nil
			}
			// The Kleene tables with Unknown on byte 2 are exactly
			// evalTri's And/Or combination; evaluating both sides is
			// observationally identical because operands are pure (a
			// keyed resolution only fills a cache).
			n := &triLogic{l: l, r: r, tmp: make([]uint8, ct.SegSize), table: &kleeneAnd}
			if x.Op == sqlparser.OpOr {
				n.table = &kleeneOr
			}
			return n
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe,
			sqlparser.OpGt, sqlparser.OpGe:
			return k.compileTriCmp(x, ct)
		default:
			// Param-bearing arithmetic/LIKE as a predicate: the row path
			// answers triUnknown for every row.
			return triConst{tri: TriNull}
		}
	case *Not:
		inner := k.compileTri(x.X, ct)
		if inner == nil {
			return nil
		}
		return &triNot{x: inner} // notTable keeps Unknown unknown
	case *SetParam:
		// Membership depends on the subject's value alone (NULL → false,
		// else a per-key lookup): one tri per key of its column.
		s, ok := k.keyedSlot(x, ct, true)
		if !ok {
			return nil
		}
		return &triKeyed{slot: s, st: k.st}
	default:
		// Any other param-bearing node (bare ScalarParam, IN-list or
		// CASE with params, ...): evalTri's default is triUnknown,
		// row-independently.
		return triConst{tri: TriNull}
	}
}

// keyedSlot registers e as a keyed slot when its column reads are all one
// clean column of ct.
func (k *TriKernel) keyedSlot(e Expr, ct *colstore.Table, pred bool) (int, bool) {
	col, n := -1, 0
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Col); ok && c.Idx != col {
			col = c.Idx
			n++
		}
		return n < 2
	})
	if n != 1 || !cleanCol(ct, col) {
		return 0, false
	}
	s := len(k.keyedEx)
	k.keyedEx = append(k.keyedEx, KeyedSlot{Expr: e, Pred: pred})
	k.st.keyed = append(k.st.keyed, keyedSlot{col: col, kind: ct.Schema[col].Type, pred: pred})
	k.st.keyed[s].memo.Reset(1)
	return s, true
}

// Comparison side kinds. A side is evaluated to a variation range per
// row (columns, keyed slots), per batch (slots), or once at compile
// (constants).
const (
	sideConst  uint8 = iota // fixed range, precomputed
	sideSlot                // injected via SetRange
	sideKeyed               // per-key range, resolved per epoch
	sideIntCol              // int/bool bank point; NULL → RangeNull
	sideFltCol              // float bank point; NULL → RangeNull
	sideStrCol              // NULL → RangeNull, else RangeUnknown
)

type cmpSide struct {
	kind   uint8
	col    int
	slot   int
	lo, hi float64
	status uint8
}

// rangeAt evaluates the side for segment-local row i.
func (s *cmpSide) rangeAt(seg *colstore.Segment, i int, st *triState) (lo, hi float64, status uint8) {
	switch s.kind {
	case sideConst:
		return s.lo, s.hi, s.status
	case sideSlot:
		r := &st.ranges[s.slot]
		return r.lo, r.hi, r.status
	case sideKeyed:
		r := st.keyedAt(s.slot, seg, i)
		return r.lo, r.hi, r.status
	case sideIntCol:
		c := &seg.Cols[s.col]
		if c.Null(i) {
			return 0, 0, RangeNull
		}
		v := float64(c.Ints[i])
		return v, v, RangeOK
	case sideFltCol:
		c := &seg.Cols[s.col]
		if c.Null(i) {
			return 0, 0, RangeNull
		}
		v := c.Floats[i]
		return v, v, RangeOK
	default: // sideStrCol
		if seg.Cols[s.col].Null(i) {
			return 0, 0, RangeNull
		}
		return 0, 0, RangeUnknown
	}
}

func (k *TriKernel) compileTriCmp(b *Binary, ct *colstore.Table) triNode {
	l, ok := k.makeSide(b.L, ct)
	if !ok {
		return nil
	}
	r, ok := k.makeSide(b.R, ct)
	if !ok {
		return nil
	}
	return &triCmp{op: b.Op, l: l, r: r, st: k.st}
}

// makeSide lowers one comparison operand. Param-free operands must be
// plain constants or clean columns (the row path evaluates them
// pointwise; anything wider stays on the per-row path); param-bearing
// operands become injected slots when row-free, keyed slots when they
// read one clean column.
func (k *TriKernel) makeSide(e Expr, ct *colstore.Table) (cmpSide, bool) {
	if !HasParams(e) {
		switch x := e.(type) {
		case *Const:
			if x.V.IsNull() {
				return cmpSide{kind: sideConst, status: RangeNull}, true
			}
			if f, ok := x.V.AsFloat(); ok {
				return cmpSide{kind: sideConst, lo: f, hi: f, status: RangeOK}, true
			}
			return cmpSide{kind: sideConst, status: RangeUnknown}, true
		case *Col:
			if !cleanCol(ct, x.Idx) {
				return cmpSide{}, false
			}
			switch ct.Schema[x.Idx].Type {
			case types.KindInt, types.KindBool:
				return cmpSide{kind: sideIntCol, col: x.Idx}, true
			case types.KindFloat:
				return cmpSide{kind: sideFltCol, col: x.Idx}, true
			case types.KindString:
				return cmpSide{kind: sideStrCol, col: x.Idx}, true
			default:
				// Declared-NULL column: every stored value is NULL.
				return cmpSide{kind: sideConst, status: RangeNull}, true
			}
		default:
			return cmpSide{}, false
		}
	}
	// Param side: row-free means its variation range is constant across
	// the batch (columns and group params read the row).
	rowFree := true
	Walk(e, func(n Expr) bool {
		switch n.(type) {
		case *Col, *GroupParam:
			rowFree = false
		}
		return rowFree
	})
	if !rowFree {
		s, ok := k.keyedSlot(e, ct, false)
		return cmpSide{kind: sideKeyed, slot: s}, ok
	}
	slot := len(k.slots)
	k.slots = append(k.slots, e)
	k.st.ranges = append(k.st.ranges, slotRange{status: RangeUnknown})
	return cmpSide{kind: sideSlot, slot: slot}, true
}

// triCmp compares two variation ranges per row, replicating the
// engine's evalCompareTri decision table: a NULL side is false (SQL),
// an unbounded side is uncertain, and each operator commits true/false
// only when the ranges cannot overlap the other outcome.
type triCmp struct {
	op   sqlparser.BinaryOp
	l, r cmpSide
	st   *triState
}

func (n *triCmp) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = n.at(seg, i)
	}
}

func (n *triCmp) gather(out []uint8, seg *colstore.Segment, rows []int32) {
	for j, i := range rows {
		out[j] = n.at(seg, int(i))
	}
}

func (n *triCmp) at(seg *colstore.Segment, i int) uint8 {
	alo, ahi, ast := n.l.rangeAt(seg, i, n.st)
	blo, bhi, bst := n.r.rangeAt(seg, i, n.st)
	if ast == RangeNull || bst == RangeNull {
		return TriFalse
	}
	if ast != RangeOK || bst != RangeOK {
		return TriNull
	}
	switch n.op {
	case sqlparser.OpGt:
		if alo > bhi {
			return TriTrue
		} else if ahi <= blo {
			return TriFalse
		}
	case sqlparser.OpGe:
		if alo >= bhi {
			return TriTrue
		} else if ahi < blo {
			return TriFalse
		}
	case sqlparser.OpLt:
		if ahi < blo {
			return TriTrue
		} else if alo >= bhi {
			return TriFalse
		}
	case sqlparser.OpLe:
		if ahi <= blo {
			return TriTrue
		} else if alo > bhi {
			return TriFalse
		}
	case sqlparser.OpEq:
		if !(alo <= bhi && blo <= ahi) {
			return TriFalse
		} else if alo == ahi && blo == bhi && alo == blo {
			return TriTrue
		}
	case sqlparser.OpNe:
		if !(alo <= bhi && blo <= ahi) {
			return TriTrue
		} else if alo == ahi && blo == bhi && alo == blo {
			return TriFalse
		}
	}
	return TriNull
}

// triKeyed is a keyed predicate: each row's tri is its key's.
type triKeyed struct {
	slot int
	st   *triState
}

func (n *triKeyed) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = n.st.keyedAt(n.slot, seg, i).status
	}
}

func (n *triKeyed) gather(out []uint8, seg *colstore.Segment, rows []int32) {
	for j, i := range rows {
		out[j] = n.st.keyedAt(n.slot, seg, int(i)).status
	}
}

// triCollapse maps a param-free subtree's NULL to false: the row path
// evaluates such subtrees pointwise as triFromBool(Truthy()). The inner
// kernel has no gather form, so a gather evaluates the rows' span into
// span and picks.
type triCollapse struct {
	x    vecNode
	span []uint8
}

func (n *triCollapse) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	n.x.eval(out, seg, lo, hi)
	for i := lo; i < hi; i++ {
		if out[i] == TriNull {
			out[i] = TriFalse
		}
	}
}

func (n *triCollapse) gather(out []uint8, seg *colstore.Segment, rows []int32) {
	lo, hi := rows[0], rows[0]
	for _, i := range rows {
		lo, hi = min(lo, i), max(hi, i)
	}
	n.eval(n.span, seg, int(lo), int(hi)+1)
	for j, i := range rows {
		out[j] = n.span[i]
	}
}

type triConst struct{ tri uint8 }

func (n triConst) eval(out []uint8, _ *colstore.Segment, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = n.tri
	}
}

func (n triConst) gather(out []uint8, _ *colstore.Segment, _ []int32) {
	for j := range out {
		out[j] = n.tri
	}
}

type triNot struct{ x triNode }

func (n *triNot) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	n.x.eval(out, seg, lo, hi)
	for i := lo; i < hi; i++ {
		out[i] = notTable[out[i]]
	}
}

func (n *triNot) gather(out []uint8, seg *colstore.Segment, rows []int32) {
	n.x.gather(out, seg, rows)
	for j := range out {
		out[j] = notTable[out[j]]
	}
}

type triLogic struct {
	l, r  triNode
	tmp   []uint8
	table *[9]uint8
}

func (n *triLogic) eval(out []uint8, seg *colstore.Segment, lo, hi int) {
	n.l.eval(out, seg, lo, hi)
	n.r.eval(n.tmp, seg, lo, hi)
	t := n.table
	for i := lo; i < hi; i++ {
		out[i] = t[out[i]*3+n.tmp[i]]
	}
}

func (n *triLogic) gather(out []uint8, seg *colstore.Segment, rows []int32) {
	tmp := n.tmp[:len(out)]
	n.l.gather(out, seg, rows)
	n.r.gather(tmp, seg, rows)
	t := n.table
	for j := range out {
		out[j] = t[out[j]*3+tmp[j]]
	}
}
