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
	// groupRanges/setTri look a canonical key (types.AppendKey bytes)
	// up in the live bindings; kbuf is the reusable key buffer, so
	// single-column keys classify without allocating.
	groupRanges []func(key []byte) paramRange
	setTri      []func(key []byte) tri
	kbuf        []byte
	// rowRanges, when non-nil, gives variation ranges for the columns of
	// the current row itself. It is used to classify set-block HAVING
	// predicates, where the group's own (scaled, still-converging)
	// aggregates occupy post-aggregate columns.
	rowRanges []paramRange
	// hp/hc memoize the HasParams / hasCols tree walks (they run on
	// every tuple otherwise). Expression trees are immutable after
	// planning, so caching by node identity is sound.
	hp func(expr.Expr) bool
	hc func(expr.Expr) bool
}

func (te *triEnv) hasParams(e expr.Expr) bool {
	if te.hp != nil {
		return te.hp(e)
	}
	return expr.HasParams(e)
}

func (te *triEnv) hasColumns(e expr.Expr) bool {
	if te.hc != nil {
		return te.hc(e)
	}
	return hasCols(e)
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
	// Sub-expressions without params (and, when row ranges are active,
	// without column reads) are exact: evaluate pointwise.
	if !te.hasParams(e) && (te.rowRanges == nil || !te.hasColumns(e)) {
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
		te.kbuf = x.AppendKey(te.kbuf[:0], te.pointCtx)
		return te.groupRanges[x.Idx](te.kbuf)
	case *expr.Neg:
		in := te.evalRange(x.X, row)
		if in.status != rsOK {
			return in
		}
		return okRange(bootstrap.Range{Lo: -in.r.Hi, Hi: -in.r.Lo})
	case *expr.Binary:
		return te.evalBinaryRange(x, row)
	default:
		return paramRange{status: rsUnknown}
	}
}

func (te *triEnv) evalBinaryRange(x *expr.Binary, row types.Row) paramRange {
	switch x.Op {
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
	default:
		return paramRange{status: rsUnknown}
	}
	l := te.evalRange(x.L, row)
	if l.status == rsNull {
		return l
	}
	r := te.evalRange(x.R, row)
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
// triFalse mean the outcome is the same for every value the uncertain
// aggregates may still take; triUnknown sends the tuple to the
// uncertain set.
func (te *triEnv) evalTri(e expr.Expr, row types.Row) tri {
	if !te.hasParams(e) && (te.rowRanges == nil || !te.hasColumns(e)) {
		te.pointCtx.Row = row
		return triFromBool(e.Eval(te.pointCtx).Truthy())
	}
	switch x := e.(type) {
	case *expr.Binary:
		switch x.Op {
		case sqlparser.OpAnd:
			l := te.evalTri(x.L, row)
			if l == triFalse {
				return triFalse
			}
			r := te.evalTri(x.R, row)
			if r == triFalse {
				return triFalse
			}
			if l == triTrue && r == triTrue {
				return triTrue
			}
			return triUnknown
		case sqlparser.OpOr:
			l := te.evalTri(x.L, row)
			if l == triTrue {
				return triTrue
			}
			r := te.evalTri(x.R, row)
			if r == triTrue {
				return triTrue
			}
			if l == triFalse && r == triFalse {
				return triFalse
			}
			return triUnknown
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe,
			sqlparser.OpGt, sqlparser.OpGe:
			return te.evalCompareTri(x, row)
		default:
			return triUnknown
		}
	case *expr.Not:
		switch te.evalTri(x.X, row) {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		default:
			return triUnknown
		}
	case *expr.SetParam:
		return te.evalSetTri(x, row)
	default:
		return triUnknown
	}
}

// evalCompareTri compares two variation ranges.
func (te *triEnv) evalCompareTri(x *expr.Binary, row types.Row) tri {
	l := te.evalRange(x.L, row)
	r := te.evalRange(x.R, row)
	// SQL: a comparison with NULL is never truthy.
	if l.status == rsNull || r.status == rsNull {
		return triFalse
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
		if !a.Overlaps(b) {
			return triFalse
		}
		if a.Lo == a.Hi && b.Lo == b.Hi && a.Lo == b.Lo {
			return triTrue
		}
	case sqlparser.OpNe:
		if !a.Overlaps(b) {
			return triTrue
		}
		if a.Lo == a.Hi && b.Lo == b.Hi && a.Lo == b.Lo {
			return triFalse
		}
	}
	return triUnknown
}

// evalSetTri resolves uncertain set membership.
func (te *triEnv) evalSetTri(x *expr.SetParam, row types.Row) tri {
	te.pointCtx.Row = row
	v := x.X.Eval(te.pointCtx)
	if v.IsNull() {
		return triFalse
	}
	if x.Idx < 0 || x.Idx >= len(te.setTri) || te.setTri[x.Idx] == nil {
		return triUnknown
	}
	te.kbuf = types.AppendKey(te.kbuf[:0], v)
	m := te.setTri[x.Idx](te.kbuf)
	if m == triUnknown {
		return triUnknown
	}
	member := m == triTrue
	return triFromBool(member != x.Negated)
}
