// Package sqlparser implements a hand-written lexer and recursive-descent
// parser for the OLAP SQL subset FluoDB executes: SELECT-PROJECT-JOIN-
// AGGREGATE blocks with scalar and IN subqueries (including equality-
// correlated ones), CASE expressions, and user-defined function calls.
package sqlparser

import (
	"strings"

	"fluodb/internal/types"
)

// Node is implemented by every AST node.
type Node interface {
	// SQL renders the node back to SQL text (canonicalized).
	SQL() string
}

// Expr is implemented by every expression node.
type Expr interface {
	Node
	exprNode()
}

// SelectStmt is a full SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil for expression-only SELECTs (SELECT 1+1)
	Where    Expr     // nil if absent
	GroupBy  []Expr
	Having   Expr // nil if absent
	OrderBy  []OrderItem
	Limit    int // -1 if absent
	Offset   int // 0 if absent
}

// SelectItem is one output column of a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // "" if none
	Star  bool   // SELECT *
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a FROM-clause item.
type TableRef interface {
	Node
	tableRefNode()
}

// BaseTable names a stored table, optionally aliased.
type BaseTable struct {
	Name  string
	Alias string
}

// JoinType enumerates supported join flavours.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
)

// Join is a binary join between two table refs with an ON condition.
type Join struct {
	Type        JoinType
	Left, Right TableRef
	On          Expr
}

// --- expressions ---

// ColumnRef references a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table string // "" if unqualified
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpLike
)

var binaryOpText = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpLike: "LIKE",
}

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string { return binaryOpText[op] }

// IsComparison reports whether the operator is a θ-comparison
// (the predicates G-OLA classifies into uncertain/deterministic sets).
func (op BinaryOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// Binary is a binary operator application.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Unary is -x or NOT x.
type Unary struct {
	Op string // "-" or "NOT"
	X  Expr
}

// FuncCall is a scalar function, aggregate function, or UDF/UDAF call.
// Aggregate-ness is resolved by the planner against the agg registry.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// Subquery is a scalar subquery expression: (SELECT ...).
type Subquery struct {
	Select *SelectStmt
}

// InExpr is `x IN (subquery)` or `x IN (e1, e2, ...)`.
type InExpr struct {
	X       Expr
	Sub     *SelectStmt // nil when List is set
	List    []Expr
	Negated bool
}

// ExistsExpr is EXISTS (subquery).
type ExistsExpr struct {
	Sub     *SelectStmt
	Negated bool
}

// Between is `x BETWEEN lo AND hi`.
type Between struct {
	X, Lo, Hi Expr
	Negated   bool
}

// IsNull is `x IS [NOT] NULL`.
type IsNull struct {
	X       Expr
	Negated bool
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond, Result Expr
}

// Case is `CASE [operand] WHEN .. THEN .. [ELSE ..] END`. When Operand is
// non-nil the WHEN conditions are equality-compared against it.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // nil if absent
}

func (*ColumnRef) exprNode()  {}
func (*Literal) exprNode()    {}
func (*Binary) exprNode()     {}
func (*Unary) exprNode()      {}
func (*FuncCall) exprNode()   {}
func (*Subquery) exprNode()   {}
func (*InExpr) exprNode()     {}
func (*ExistsExpr) exprNode() {}
func (*Between) exprNode()    {}
func (*IsNull) exprNode()     {}
func (*Case) exprNode()       {}

func (*BaseTable) tableRefNode() {}
func (*Join) tableRefNode()      {}

// Walk visits e and its sub-expressions pre-order. If f returns false the
// node's children are skipped. A nested query is opaque: Walk visits a
// Subquery, an ExistsExpr and an InExpr itself but never descends into
// their SELECT (an InExpr's X and List are its children).
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		Walk(x.L, f)
		Walk(x.R, f)
	case *Unary:
		Walk(x.X, f)
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *InExpr:
		Walk(x.X, f)
		for _, a := range x.List {
			Walk(a, f)
		}
	case *Between:
		Walk(x.X, f)
		Walk(x.Lo, f)
		Walk(x.Hi, f)
	case *IsNull:
		Walk(x.X, f)
	case *Case:
		Walk(x.Operand, f)
		for _, w := range x.Whens {
			Walk(w.Cond, f)
			Walk(w.Result, f)
		}
		Walk(x.Else, f)
	}
}

// --- SQL rendering ---

// SQL implements Node.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			continue
		}
		b.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(it.Alias)
		}
	}
	if s.From != nil {
		b.WriteString(" FROM ")
		b.WriteString(s.From.SQL())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(itoa(s.Limit))
	}
	if s.Offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(itoa(s.Offset))
	}
	return b.String()
}

func itoa(n int) string {
	return types.NewInt(int64(n)).String()
}

// SQL implements Node.
func (t *BaseTable) SQL() string {
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// SQL implements Node.
func (j *Join) SQL() string {
	kw := " JOIN "
	if j.Type == LeftJoin {
		kw = " LEFT JOIN "
	}
	return j.Left.SQL() + kw + j.Right.SQL() + " ON " + j.On.SQL()
}

// SQL implements Node.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// SQL implements Node.
func (l *Literal) SQL() string { return l.Value.SQLLiteral() }

// SQL implements Node.
func (bx *Binary) SQL() string {
	return "(" + bx.L.SQL() + " " + bx.Op.String() + " " + bx.R.SQL() + ")"
}

// SQL implements Node.
func (u *Unary) SQL() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.SQL() + ")"
	}
	return "(" + u.Op + u.X.SQL() + ")"
}

// SQL implements Node.
func (f *FuncCall) SQL() string {
	if f.Star {
		return strings.ToUpper(f.Name) + "(*)"
	}
	var b strings.Builder
	b.WriteString(strings.ToUpper(f.Name))
	b.WriteByte('(')
	if f.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, a := range f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.SQL())
	}
	b.WriteByte(')')
	return b.String()
}

// SQL implements Node.
func (s *Subquery) SQL() string { return "(" + s.Select.SQL() + ")" }

// SQL implements Node.
func (in *InExpr) SQL() string {
	var b strings.Builder
	b.WriteString(in.X.SQL())
	if in.Negated {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	if in.Sub != nil {
		b.WriteString(in.Sub.SQL())
	} else {
		for i, e := range in.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// SQL implements Node.
func (e *ExistsExpr) SQL() string {
	s := "EXISTS (" + e.Sub.SQL() + ")"
	if e.Negated {
		return "NOT " + s
	}
	return s
}

// SQL implements Node.
func (bt *Between) SQL() string {
	not := ""
	if bt.Negated {
		not = " NOT"
	}
	return "(" + bt.X.SQL() + not + " BETWEEN " + bt.Lo.SQL() + " AND " + bt.Hi.SQL() + ")"
}

// SQL implements Node.
func (i *IsNull) SQL() string {
	if i.Negated {
		return "(" + i.X.SQL() + " IS NOT NULL)"
	}
	return "(" + i.X.SQL() + " IS NULL)"
}

// SQL implements Node.
func (c *Case) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteByte(' ')
		b.WriteString(c.Operand.SQL())
	}
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.SQL())
		b.WriteString(" THEN ")
		b.WriteString(w.Result.SQL())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}
