// Package expr implements FluoDB's bound (column-resolved) expression
// trees and their evaluation, including SQL three-valued logic, scalar
// built-ins, user-defined functions, and the placeholder nodes through
// which G-OLA injects the running estimates of nested aggregate
// subqueries (see internal/core).
package expr

import (
	"fmt"
	"math"
	"strings"

	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// Ctx carries everything an expression may reference during evaluation.
type Ctx struct {
	// Row is the current input tuple.
	Row types.Row
	// Scalars holds the current values of uncertain scalar placeholders
	// (one per nested aggregate subquery), indexed by ScalarParam.Idx.
	// During online execution the controller rebinds these per snapshot
	// and per bootstrap replica.
	Scalars []types.Value
	// Groups holds per-group lookups for equality-correlated subqueries,
	// indexed by GroupParam.Idx. The key is the correlated column's
	// canonical key string.
	Groups []func(key string) (types.Value, bool)
	// SetsFns holds membership oracles for IN-subquery placeholders,
	// indexed by SetParam.Idx.
	SetsFns []SetLookup
}

// Expr is a bound expression.
type Expr interface {
	// Eval evaluates against the context. It never panics on well-typed
	// plans; type mismatches yield NULL like most permissive engines.
	Eval(ctx *Ctx) types.Value
	// Kind is the statically inferred result type (best effort; KindNull
	// when unknown).
	Kind() types.Kind
	// String renders for EXPLAIN output.
	String() string
}

// --- column and constant ---

// Col references the Idx-th column of the input row.
type Col struct {
	Idx  int
	Name string
	Typ  types.Kind
}

// Eval implements Expr.
func (c *Col) Eval(ctx *Ctx) types.Value {
	if c.Idx < 0 || c.Idx >= len(ctx.Row) {
		return types.Null
	}
	return ctx.Row[c.Idx]
}

// Kind implements Expr.
func (c *Col) Kind() types.Kind { return c.Typ }

// String implements Expr.
func (c *Col) String() string { return fmt.Sprintf("%s#%d", c.Name, c.Idx) }

// Const is a literal value.
type Const struct {
	V types.Value
}

// Eval implements Expr.
func (c *Const) Eval(*Ctx) types.Value { return c.V }

// Kind implements Expr.
func (c *Const) Kind() types.Kind { return c.V.Kind() }

// String implements Expr.
func (c *Const) String() string { return c.V.SQLLiteral() }

// --- uncertain scalar placeholders (the G-OLA hook) ---

// ScalarParam stands for the value of a nested aggregate subquery. The
// planner assigns each scalar subquery an index; the online controller
// binds running estimates (or bootstrap replica values) into Ctx.Scalars.
type ScalarParam struct {
	Idx  int
	Typ  types.Kind
	Desc string // subquery SQL, for EXPLAIN
}

// Eval implements Expr.
func (p *ScalarParam) Eval(ctx *Ctx) types.Value {
	if p.Idx < 0 || p.Idx >= len(ctx.Scalars) {
		return types.Null
	}
	return ctx.Scalars[p.Idx]
}

// Kind implements Expr.
func (p *ScalarParam) Kind() types.Kind { return p.Typ }

// String implements Expr.
func (p *ScalarParam) String() string { return fmt.Sprintf("$%d{%s}", p.Idx, p.Desc) }

// GroupParam stands for the value of an equality-correlated aggregate
// subquery: the inner aggregate grouped by the correlation key. Keys are
// the bound expressions computing the outer side of the correlation
// predicate(s); the lookup maps their canonical key string to the
// group's current aggregate estimate.
type GroupParam struct {
	Idx  int
	Keys []Expr
	Typ  types.Kind
	Desc string
}

// KeyString computes the canonical correlation key of the current row.
func (p *GroupParam) KeyString(ctx *Ctx) string {
	if len(p.Keys) == 1 {
		return types.KeyString1(p.Keys[0].Eval(ctx))
	}
	row := make(types.Row, len(p.Keys))
	cols := make([]int, len(p.Keys))
	for i, k := range p.Keys {
		row[i] = k.Eval(ctx)
		cols[i] = i
	}
	return row.KeyString(cols)
}

// AppendKey appends the row's canonical correlation key (KeyString's
// bytes) to dst; a single key column appends without allocating.
func (p *GroupParam) AppendKey(dst []byte, ctx *Ctx) []byte {
	if len(p.Keys) == 1 {
		return types.AppendKey(dst, p.Keys[0].Eval(ctx))
	}
	return append(dst, p.KeyString(ctx)...)
}

// Eval implements Expr.
func (p *GroupParam) Eval(ctx *Ctx) types.Value {
	if p.Idx < 0 || p.Idx >= len(ctx.Groups) || ctx.Groups[p.Idx] == nil {
		return types.Null
	}
	v, ok := ctx.Groups[p.Idx](p.KeyString(ctx))
	if !ok {
		return types.Null
	}
	return v
}

// Kind implements Expr.
func (p *GroupParam) Kind() types.Kind { return p.Typ }

// String implements Expr.
func (p *GroupParam) String() string {
	parts := make([]string, len(p.Keys))
	for i, k := range p.Keys {
		parts[i] = k.String()
	}
	return fmt.Sprintf("$%d[%s]{%s}", p.Idx, strings.Join(parts, ","), p.Desc)
}

// --- operators ---

// Binary applies a binary operator with SQL NULL semantics.
type Binary struct {
	Op   sqlparser.BinaryOp
	L, R Expr
}

// Eval implements Expr.
func (b *Binary) Eval(ctx *Ctx) types.Value {
	switch b.Op {
	case sqlparser.OpAnd:
		return evalAnd(b.L.Eval(ctx), func() types.Value { return b.R.Eval(ctx) })
	case sqlparser.OpOr:
		return evalOr(b.L.Eval(ctx), func() types.Value { return b.R.Eval(ctx) })
	}
	l := b.L.Eval(ctx)
	r := b.R.Eval(ctx)
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	switch b.Op {
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		return evalArith(b.Op, l, r)
	case sqlparser.OpEq:
		return types.NewBool(types.Compare(l, r) == 0)
	case sqlparser.OpNe:
		return types.NewBool(types.Compare(l, r) != 0)
	case sqlparser.OpLt:
		return types.NewBool(types.Compare(l, r) < 0)
	case sqlparser.OpLe:
		return types.NewBool(types.Compare(l, r) <= 0)
	case sqlparser.OpGt:
		return types.NewBool(types.Compare(l, r) > 0)
	case sqlparser.OpGe:
		return types.NewBool(types.Compare(l, r) >= 0)
	case sqlparser.OpLike:
		if l.Kind() != types.KindString || r.Kind() != types.KindString {
			return types.Null
		}
		return types.NewBool(likeMatch(l.Str(), r.Str()))
	}
	return types.Null
}

// Kind implements Expr.
func (b *Binary) Kind() types.Kind {
	switch b.Op {
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpMod:
		if b.L.Kind() == types.KindInt && b.R.Kind() == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	case sqlparser.OpDiv:
		return types.KindFloat
	default:
		return types.KindBool
	}
}

// String implements Expr.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

func evalArith(op sqlparser.BinaryOp, l, r types.Value) types.Value {
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt && op != sqlparser.OpDiv {
		a, b := l.Int(), r.Int()
		switch op {
		case sqlparser.OpAdd:
			return types.NewInt(a + b)
		case sqlparser.OpSub:
			return types.NewInt(a - b)
		case sqlparser.OpMul:
			return types.NewInt(a * b)
		case sqlparser.OpMod:
			if b == 0 {
				return types.Null
			}
			return types.NewInt(a % b)
		}
	}
	a, ok1 := l.AsFloat()
	b, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return types.Null
	}
	switch op {
	case sqlparser.OpAdd:
		return types.NewFloat(a + b)
	case sqlparser.OpSub:
		return types.NewFloat(a - b)
	case sqlparser.OpMul:
		return types.NewFloat(a * b)
	case sqlparser.OpDiv:
		if b == 0 {
			return types.Null
		}
		return types.NewFloat(a / b)
	case sqlparser.OpMod:
		if b == 0 {
			return types.Null
		}
		return types.NewFloat(math.Mod(a, b))
	}
	return types.Null
}

// evalAnd implements Kleene AND with short circuit.
func evalAnd(l types.Value, rf func() types.Value) types.Value {
	if !l.IsNull() && !l.Truthy() {
		return types.NewBool(false)
	}
	r := rf()
	if !r.IsNull() && !r.Truthy() {
		return types.NewBool(false)
	}
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	return types.NewBool(true)
}

// evalOr implements Kleene OR with short circuit.
func evalOr(l types.Value, rf func() types.Value) types.Value {
	if !l.IsNull() && l.Truthy() {
		return types.NewBool(true)
	}
	r := rf()
	if !r.IsNull() && r.Truthy() {
		return types.NewBool(true)
	}
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	return types.NewBool(false)
}

// Not negates a boolean with NULL propagation.
type Not struct{ X Expr }

// Eval implements Expr.
func (n *Not) Eval(ctx *Ctx) types.Value {
	v := n.X.Eval(ctx)
	if v.IsNull() {
		return types.Null
	}
	return types.NewBool(!v.Truthy())
}

// Kind implements Expr.
func (n *Not) Kind() types.Kind { return types.KindBool }

// String implements Expr.
func (n *Not) String() string { return "(NOT " + n.X.String() + ")" }

// Neg is unary minus.
type Neg struct{ X Expr }

// Eval implements Expr.
func (n *Neg) Eval(ctx *Ctx) types.Value {
	v := n.X.Eval(ctx)
	switch v.Kind() {
	case types.KindInt:
		return types.NewInt(-v.Int())
	case types.KindFloat:
		return types.NewFloat(-v.Float())
	default:
		return types.Null
	}
}

// Kind implements Expr.
func (n *Neg) Kind() types.Kind { return n.X.Kind() }

// String implements Expr.
func (n *Neg) String() string { return "(-" + n.X.String() + ")" }

// IsNull is `x IS [NOT] NULL`.
type IsNull struct {
	X       Expr
	Negated bool
}

// Eval implements Expr.
func (i *IsNull) Eval(ctx *Ctx) types.Value {
	isNull := i.X.Eval(ctx).IsNull()
	if i.Negated {
		return types.NewBool(!isNull)
	}
	return types.NewBool(isNull)
}

// Kind implements Expr.
func (i *IsNull) Kind() types.Kind { return types.KindBool }

// String implements Expr.
func (i *IsNull) String() string {
	if i.Negated {
		return "(" + i.X.String() + " IS NOT NULL)"
	}
	return "(" + i.X.String() + " IS NULL)"
}

// InList is `x [NOT] IN (v1, v2, ...)` with SQL NULL semantics.
type InList struct {
	X       Expr
	List    []Expr
	Negated bool
}

// Eval implements Expr.
func (in *InList) Eval(ctx *Ctx) types.Value {
	x := in.X.Eval(ctx)
	if x.IsNull() {
		return types.Null
	}
	sawNull := false
	found := false
	for _, e := range in.List {
		v := e.Eval(ctx)
		if v.IsNull() {
			sawNull = true
			continue
		}
		if types.Equal(x, v) {
			found = true
			break
		}
	}
	switch {
	case found:
		return types.NewBool(!in.Negated)
	case sawNull:
		return types.Null
	default:
		return types.NewBool(in.Negated)
	}
}

// Kind implements Expr.
func (in *InList) Kind() types.Kind { return types.KindBool }

// String implements Expr.
func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Negated {
		not = " NOT"
	}
	return "(" + in.X.String() + not + " IN (" + strings.Join(parts, ", ") + "))"
}

// SetParam is `x [NOT] IN (subquery)` where the subquery's result set is
// bound at runtime: the lookup classifies a key as member / non-member.
// This is G-OLA's uncertain set-membership hook (TPC-H Q18/Q20 style).
type SetParam struct {
	Idx     int
	X       Expr
	Negated bool
	Desc    string
}

// SetLookup answers membership queries for a SetParam.
type SetLookup func(key string) bool

// Eval implements Expr. The membership function is found in Ctx.Sets.
func (s *SetParam) Eval(ctx *Ctx) types.Value {
	x := s.X.Eval(ctx)
	if x.IsNull() {
		return types.Null
	}
	if s.Idx < 0 || s.Idx >= len(ctx.SetsFns) || ctx.SetsFns[s.Idx] == nil {
		return types.Null
	}
	member := ctx.SetsFns[s.Idx](types.KeyString1(x))
	return types.NewBool(member != s.Negated)
}

// Kind implements Expr.
func (s *SetParam) Kind() types.Kind { return types.KindBool }

// String implements Expr.
func (s *SetParam) String() string {
	not := ""
	if s.Negated {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s IN $set%d{%s})", s.X, not, s.Idx, s.Desc)
}

// Case is CASE WHEN ... THEN ... ELSE ... END (searched form; the binder
// rewrites the operand form into equality comparisons).
type Case struct {
	Whens []struct {
		Cond, Result Expr
	}
	Else Expr // may be nil
}

// Eval implements Expr.
func (c *Case) Eval(ctx *Ctx) types.Value {
	for _, w := range c.Whens {
		if w.Cond.Eval(ctx).Truthy() {
			return w.Result.Eval(ctx)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(ctx)
	}
	return types.Null
}

// Kind implements Expr.
func (c *Case) Kind() types.Kind {
	if len(c.Whens) > 0 {
		return c.Whens[0].Result.Kind()
	}
	return types.KindNull
}

// String implements Expr.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Result.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one char),
// matching bytes (ASCII data in our workloads).
func likeMatch(s, pattern string) bool {
	// dynamic programming over pattern/state
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// collapse consecutive %
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}
