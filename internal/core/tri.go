// Package core implements the G-OLA execution model (§2–§3 of the
// paper): mini-batch online processing with efficient delta maintenance.
//
// The controller partitions every streamed fact table into k uniform
// mini-batches. Each lineage block (see internal/plan) keeps incremental
// aggregate state — a main state plus B poissonized-bootstrap replica
// states — and, at every predicate that references a nested aggregate's
// value, classifies input tuples into a deterministic set (folded into
// the aggregate states permanently) and an uncertain set (cached with
// lineage and lazily re-evaluated as the nested estimates refine).
// Variation ranges R(u) = [min(û)−ε, max(û)+ε] computed from the
// bootstrap replicas drive the classification; the controller monitors
// committed ranges and schedules recomputation when an estimate escapes
// them (§3.2).
package core

import (
	"fluodb/internal/bootstrap"
	"fluodb/internal/expr"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// tri is a three-valued predicate outcome under interval semantics.
type tri int

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

func triFromBool(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// rangeStatus qualifies an interval evaluation.
type rangeStatus int

const (
	rsOK      rangeStatus = iota // range is meaningful
	rsNull                       // the value is SQL NULL (predicates fail)
	rsUnknown                    // cannot bound the value → conservative
)

// triEnv provides the interval view of the parameter bindings plus the
// point-estimate context for the certain sub-expressions.
type triEnv struct {
	pointCtx     *expr.Ctx
	scalarRanges []paramRange
	// groupRanges/setTri look a key's values up in the live bindings
	// (a set key is its one subject value); krow is the reusable key
	// row, so keys classify without allocating.
	groupRanges []func(key types.Row) paramRange
	setTri      []func(key types.Row) tri
	krow        types.Row
	// rowRanges, when non-nil, gives variation ranges for the columns of
	// the current row itself. It is used to classify set-block HAVING
	// predicates, where the group's own (scaled, still-converging)
	// aggregates occupy post-aggregate columns.
	rowRanges []paramRange
	// nodes maps every expression node the engine classifies to its
	// triNode (Engine.warmTriNodes); read-only once built, so worker
	// goroutines share it. A node outside it is lowered per call.
	nodes map[expr.Expr]*triNode
}

// triNode is an expression node with the facts interval evaluation
// branches on fixed once: exact (no parameter below it, so it evaluates
// pointwise) and cols (it reads a row column, which row ranges
// replace). Expression trees are immutable after planning, so the
// facts hold for the plan's lifetime. l and r are the operands of a
// Binary; l alone that of a Not or Neg.
type triNode struct {
	e     expr.Expr
	exact bool
	cols  bool
	l, r  *triNode
}

// newTriNode lowers e's tree.
func newTriNode(e expr.Expr) *triNode {
	n := &triNode{e: e, exact: !expr.HasParams(e), cols: hasCols(e)}
	switch x := e.(type) {
	case *expr.Binary:
		n.l, n.r = newTriNode(x.L), newTriNode(x.R)
	case *expr.Not:
		n.l = newTriNode(x.X)
	case *expr.Neg:
		n.l = newTriNode(x.X)
	}
	return n
}

// register records n and every node below it in m (a node already
// there keeps its first lowering).
func (n *triNode) register(m map[expr.Expr]*triNode) {
	if n == nil {
		return
	}
	if _, ok := m[n.e]; !ok {
		m[n.e] = n
	}
	n.l.register(m)
	n.r.register(m)
}

// node returns e's triNode.
func (te *triEnv) node(e expr.Expr) *triNode {
	if n, ok := te.nodes[e]; ok {
		return n
	}
	return newTriNode(e)
}

// pointwise reports whether n evaluates exactly at the point bindings:
// no parameter below it and, while row ranges are active, no column
// read either.
func (te *triEnv) pointwise(n *triNode) bool {
	return n.exact && (te.rowRanges == nil || !n.cols)
}

// hasCols reports whether the expression reads any row column.
func hasCols(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if _, ok := x.(*expr.Col); ok {
			found = true
		}
		return !found
	})
	return found
}

// paramRange is a variation range plus its status.
type paramRange struct {
	r      bootstrap.Range
	status rangeStatus
}

func okRange(r bootstrap.Range) paramRange { return paramRange{r: r, status: rsOK} }

// evalRange evaluates a numeric expression to a variation range.
func (te *triEnv) evalRange(e expr.Expr, row types.Row) paramRange {
	return te.nodeRange(te.node(e), row)
}

func (te *triEnv) nodeRange(n *triNode, row types.Row) paramRange {
	// Sub-expressions without params (and, when row ranges are active,
	// without column reads) are exact: evaluate pointwise.
	e := n.e
	if te.pointwise(n) {
		te.pointCtx.Row = row
		v := e.Eval(te.pointCtx)
		if v.IsNull() {
			return paramRange{status: rsNull}
		}
		f, ok := v.AsFloat()
		if !ok {
			return paramRange{status: rsUnknown}
		}
		return okRange(bootstrap.Point(f))
	}
	switch x := e.(type) {
	case *expr.Col:
		if te.rowRanges != nil {
			if x.Idx >= 0 && x.Idx < len(te.rowRanges) {
				return te.rowRanges[x.Idx]
			}
			return paramRange{status: rsUnknown}
		}
		// unreachable via the fast path above, but kept for safety
		te.pointCtx.Row = row
		v := x.Eval(te.pointCtx)
		if v.IsNull() {
			return paramRange{status: rsNull}
		}
		if f, ok := v.AsFloat(); ok {
			return okRange(bootstrap.Point(f))
		}
		return paramRange{status: rsUnknown}
	case *expr.ScalarParam:
		if x.Idx < 0 || x.Idx >= len(te.scalarRanges) {
			return paramRange{status: rsUnknown}
		}
		return te.scalarRanges[x.Idx]
	case *expr.GroupParam:
		if x.Idx < 0 || x.Idx >= len(te.groupRanges) || te.groupRanges[x.Idx] == nil {
			return paramRange{status: rsUnknown}
		}
		te.pointCtx.Row = row
		te.krow = evalKeys(te.krow, x.Keys, te.pointCtx)
		return te.groupRanges[x.Idx](te.krow)
	case *expr.Neg:
		in := te.nodeRange(n.l, row)
		if in.status != rsOK {
			return in
		}
		return okRange(bootstrap.Range{Lo: -in.r.Hi, Hi: -in.r.Lo})
	case *expr.Binary:
		return te.binaryRange(x, n, row)
	default:
		return paramRange{status: rsUnknown}
	}
}

func (te *triEnv) binaryRange(x *expr.Binary, n *triNode, row types.Row) paramRange {
	switch x.Op {
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
	default:
		return paramRange{status: rsUnknown}
	}
	l := te.nodeRange(n.l, row)
	if l.status == rsNull {
		return l
	}
	r := te.nodeRange(n.r, row)
	if r.status == rsNull {
		return r
	}
	if l.status != rsOK || r.status != rsOK {
		return paramRange{status: rsUnknown}
	}
	a, b := l.r, r.r
	switch x.Op {
	case sqlparser.OpAdd:
		return okRange(bootstrap.Range{Lo: a.Lo + b.Lo, Hi: a.Hi + b.Hi})
	case sqlparser.OpSub:
		return okRange(bootstrap.Range{Lo: a.Lo - b.Hi, Hi: a.Hi - b.Lo})
	case sqlparser.OpMul:
		c1, c2, c3, c4 := a.Lo*b.Lo, a.Lo*b.Hi, a.Hi*b.Lo, a.Hi*b.Hi
		return okRange(bootstrap.Range{Lo: min4(c1, c2, c3, c4), Hi: max4(c1, c2, c3, c4)})
	case sqlparser.OpDiv:
		if b.Lo <= 0 && b.Hi >= 0 {
			return paramRange{status: rsUnknown} // denominator may cross zero
		}
		c1, c2, c3, c4 := a.Lo/b.Lo, a.Lo/b.Hi, a.Hi/b.Lo, a.Hi/b.Hi
		return okRange(bootstrap.Range{Lo: min4(c1, c2, c3, c4), Hi: max4(c1, c2, c3, c4)})
	}
	return paramRange{status: rsUnknown}
}

func min4(a, b, c, d float64) float64 {
	m := a
	for _, x := range []float64{b, c, d} {
		if x < m {
			m = x
		}
	}
	return m
}

func max4(a, b, c, d float64) float64 {
	m := a
	for _, x := range []float64{b, c, d} {
		if x > m {
			m = x
		}
	}
	return m
}

// evalTri evaluates a predicate under interval semantics: triTrue and
// triFalse mean the predicate is TRUE, respectively not TRUE (FALSE or
// NULL), for every value the uncertain aggregates may still take;
// triUnknown sends the tuple to the uncertain set.
func (te *triEnv) evalTri(e expr.Expr, row types.Row) tri {
	return te.nodeTri(te.node(e), row, false)
}

// evalTriNeg is evalTri for a subtree under an odd (neg) or even number
// of NOTs. A WHERE row passes only when the predicate is TRUE, and NOT
// maps NULL to NULL, so a NULL outcome must end up "not TRUE" however
// many NOTs sit above it: under an even count it reads as false, under
// an odd count as true (which the NOT above turns into false). Kleene
// AND and OR commute with both readings, so only the leaves depend on
// neg.
func (te *triEnv) evalTriNeg(e expr.Expr, row types.Row, neg bool) tri {
	return te.nodeTri(te.node(e), row, neg)
}

// nodeTri is evalTriNeg over a lowered tree.
func (te *triEnv) nodeTri(n *triNode, row types.Row, neg bool) tri {
	e := n.e
	if te.pointwise(n) {
		te.pointCtx.Row = row
		v := e.Eval(te.pointCtx)
		if v.IsNull() {
			return triFromBool(neg)
		}
		return triFromBool(v.Truthy())
	}
	switch x := e.(type) {
	case *expr.Binary:
		switch x.Op {
		case sqlparser.OpAnd:
			l := te.nodeTri(n.l, row, neg)
			if l == triFalse {
				return triFalse
			}
			r := te.nodeTri(n.r, row, neg)
			if r == triFalse {
				return triFalse
			}
			if l == triTrue && r == triTrue {
				return triTrue
			}
			return triUnknown
		case sqlparser.OpOr:
			l := te.nodeTri(n.l, row, neg)
			if l == triTrue {
				return triTrue
			}
			r := te.nodeTri(n.r, row, neg)
			if r == triTrue {
				return triTrue
			}
			if l == triFalse && r == triFalse {
				return triFalse
			}
			return triUnknown
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe,
			sqlparser.OpGt, sqlparser.OpGe:
			return te.compareTri(x, n, row, neg)
		default:
			return triUnknown
		}
	case *expr.Not:
		switch te.nodeTri(n.l, row, !neg) {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		default:
			return triUnknown
		}
	case *expr.SetParam:
		return te.evalSetTri(x, row, neg)
	default:
		return triUnknown
	}
}

// compareTri compares two variation ranges (neg as in evalTriNeg).
// A NaN bound decides nothing: types.Compare orders NaN equal to every
// float, which no interval test below reproduces.
func (te *triEnv) compareTri(x *expr.Binary, n *triNode, row types.Row, neg bool) tri {
	l := te.nodeRange(n.l, row)
	r := te.nodeRange(n.r, row)
	// SQL: a comparison with NULL is NULL.
	if l.status == rsNull || r.status == rsNull {
		return triFromBool(neg)
	}
	if l.status != rsOK || r.status != rsOK {
		return triUnknown
	}
	a, b := l.r, r.r
	switch x.Op {
	case sqlparser.OpGt:
		if a.Lo > b.Hi {
			return triTrue
		}
		if a.Hi <= b.Lo {
			return triFalse
		}
	case sqlparser.OpGe:
		if a.Lo >= b.Hi {
			return triTrue
		}
		if a.Hi < b.Lo {
			return triFalse
		}
	case sqlparser.OpLt:
		if a.Hi < b.Lo {
			return triTrue
		}
		if a.Lo >= b.Hi {
			return triFalse
		}
	case sqlparser.OpLe:
		if a.Hi <= b.Lo {
			return triTrue
		}
		if a.Lo > b.Hi {
			return triFalse
		}
	case sqlparser.OpEq:
		if a.Lo > b.Hi || b.Lo > a.Hi {
			return triFalse
		}
		if a.Lo == a.Hi && b.Lo == b.Hi && a.Lo == b.Lo {
			return triTrue
		}
	case sqlparser.OpNe:
		if a.Lo > b.Hi || b.Lo > a.Hi {
			return triTrue
		}
		if a.Lo == a.Hi && b.Lo == b.Hi && a.Lo == b.Lo {
			return triFalse
		}
	}
	return triUnknown
}

// evalSetTri resolves uncertain set membership (neg as in evalTriNeg:
// a NULL subject's membership is NULL).
func (te *triEnv) evalSetTri(x *expr.SetParam, row types.Row, neg bool) tri {
	te.pointCtx.Row = row
	v := x.X.Eval(te.pointCtx)
	if v.IsNull() {
		return triFromBool(neg)
	}
	if x.Idx < 0 || x.Idx >= len(te.setTri) || te.setTri[x.Idx] == nil {
		return triUnknown
	}
	te.krow = append(te.krow[:0], v)
	m := te.setTri[x.Idx](te.krow)
	if m == triUnknown {
		return triUnknown
	}
	member := m == triTrue
	return triFromBool(member != x.Negated)
}
