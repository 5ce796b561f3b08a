package plan

import (
	"fmt"
	"strings"

	"fluodb/internal/agg"
	"fluodb/internal/expr"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// errNotFound / errAmbiguous classify column resolution failures.
type resolveErr struct {
	ambiguous bool
	msg       string
}

func (e *resolveErr) Error() string { return e.msg }

// resolve finds the column (tbl optional qualifier) in the input's
// concatenated schema.
func (in *Input) resolve(tbl, col string) (int, types.Kind, error) {
	found := -1
	var kind types.Kind
	for i, c := range in.Schema {
		if !strings.EqualFold(c.Name, col) {
			continue
		}
		if tbl != "" && !strings.EqualFold(in.Quals[i], tbl) {
			continue
		}
		if found >= 0 {
			return 0, 0, &resolveErr{ambiguous: true,
				msg: fmt.Sprintf("plan: ambiguous column %q", col)}
		}
		found = i
		kind = c.Type
	}
	if found < 0 {
		name := col
		if tbl != "" {
			name = tbl + "." + col
		}
		return 0, 0, &resolveErr{msg: fmt.Sprintf("plan: unknown column %q", name)}
	}
	return found, kind, nil
}

// scope chains input schemas for correlation detection.
type scope struct {
	in    *Input
	outer *scope
}

// binder binds AST expressions over a block's input schema.
type binder struct {
	p   *Planner
	sc  *scope
	blk *Block // block being built; receives Deps of planned subqueries
}

// bindExpr binds an AST expression over the input schema. Subqueries are
// planned into their own blocks and replaced by placeholder parameters.
// Aggregate calls are rejected — they are only legal through the
// post-aggregate binder.
func (b *binder) bindExpr(ast sqlparser.Expr) (expr.Expr, error) {
	switch x := ast.(type) {
	case *sqlparser.Literal:
		return &expr.Const{V: x.Value}, nil
	case *sqlparser.ColumnRef:
		return b.resolveCol(x)
	case *sqlparser.Binary:
		l, err := b.bindExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: x.Op, L: l, R: r}, nil
	case *sqlparser.Unary:
		inner, err := b.bindExpr(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &expr.Not{X: inner}, nil
		}
		return &expr.Neg{X: inner}, nil
	case *sqlparser.FuncCall:
		if agg.IsAggregate(x.Name) {
			return nil, fmt.Errorf("plan: aggregate %s not allowed in this clause", x.Name)
		}
		return b.bindCall(x, b.bindExpr)
	case *sqlparser.Subquery:
		return b.bindScalarSubquery(x.Select)
	case *sqlparser.InExpr:
		if x.Sub != nil {
			lhs, err := b.bindExpr(x.X)
			if err != nil {
				return nil, err
			}
			return b.bindInSubquery(x, lhs)
		}
		lhs, err := b.bindExpr(x.X)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(x.List))
		for i, e := range x.List {
			le, err := b.bindExpr(e)
			if err != nil {
				return nil, err
			}
			list[i] = le
		}
		return &expr.InList{X: lhs, List: list, Negated: x.Negated}, nil
	case *sqlparser.ExistsExpr:
		return b.bindExists(x)
	case *sqlparser.Between:
		return b.bindBetween(x, b.bindExpr)
	case *sqlparser.IsNull:
		inner, err := b.bindExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: inner, Negated: x.Negated}, nil
	case *sqlparser.Case:
		return b.bindCase(x, b.bindExpr)
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", ast)
	}
}

// bindCall binds a scalar function call, recursing through `rec` so the
// same code serves both the input-scope and post-aggregate binders.
func (b *binder) bindCall(x *sqlparser.FuncCall, rec func(sqlparser.Expr) (expr.Expr, error)) (expr.Expr, error) {
	fn, ok := expr.LookupFunc(x.Name)
	if !ok {
		return nil, fmt.Errorf("plan: unknown function %s", x.Name)
	}
	if x.Star {
		return nil, fmt.Errorf("plan: %s(*) is not a scalar call", x.Name)
	}
	args := make([]expr.Expr, len(x.Args))
	for i, a := range x.Args {
		e, err := rec(a)
		if err != nil {
			return nil, err
		}
		args[i] = e
	}
	return expr.NewCall(fn, args)
}

// bindBetween rewrites BETWEEN into two comparisons.
func (b *binder) bindBetween(x *sqlparser.Between, rec func(sqlparser.Expr) (expr.Expr, error)) (expr.Expr, error) {
	xe, err := rec(x.X)
	if err != nil {
		return nil, err
	}
	lo, err := rec(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := rec(x.Hi)
	if err != nil {
		return nil, err
	}
	var out expr.Expr = &expr.Binary{
		Op: sqlparser.OpAnd,
		L:  &expr.Binary{Op: sqlparser.OpGe, L: xe, R: lo},
		R:  &expr.Binary{Op: sqlparser.OpLe, L: xe, R: hi},
	}
	if x.Negated {
		out = &expr.Not{X: out}
	}
	return out, nil
}

// bindCase binds both CASE forms (the operand form becomes equality
// comparisons).
func (b *binder) bindCase(x *sqlparser.Case, rec func(sqlparser.Expr) (expr.Expr, error)) (expr.Expr, error) {
	var operand expr.Expr
	if x.Operand != nil {
		var err error
		operand, err = rec(x.Operand)
		if err != nil {
			return nil, err
		}
	}
	out := &expr.Case{}
	for _, w := range x.Whens {
		cond, err := rec(w.Cond)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = &expr.Binary{Op: sqlparser.OpEq, L: operand, R: cond}
		}
		res, err := rec(w.Result)
		if err != nil {
			return nil, err
		}
		out.Whens = append(out.Whens, struct{ Cond, Result expr.Expr }{cond, res})
	}
	if x.Else != nil {
		e, err := rec(x.Else)
		if err != nil {
			return nil, err
		}
		out.Else = e
	}
	return out, nil
}

// resolveCol resolves a column reference at depth 0, producing targeted
// errors for correlated references found in outer scopes.
func (b *binder) resolveCol(ref *sqlparser.ColumnRef) (expr.Expr, error) {
	idx, kind, err := b.sc.in.resolve(ref.Table, ref.Name)
	if err == nil {
		return &expr.Col{Idx: idx, Name: ref.SQL(), Typ: kind}, nil
	}
	if re, ok := err.(*resolveErr); ok && re.ambiguous {
		return nil, err
	}
	for s := b.sc.outer; s != nil; s = s.outer {
		if _, _, e := s.in.resolve(ref.Table, ref.Name); e == nil {
			return nil, fmt.Errorf(
				"plan: correlated reference %s: correlation is only supported as "+
					"equality conjuncts in the subquery's WHERE clause", ref.SQL())
		}
	}
	return nil, err
}

// bindExists rewrites uncorrelated EXISTS(sub) into COUNT(*)-subquery > 0.
func (b *binder) bindExists(x *sqlparser.ExistsExpr) (expr.Expr, error) {
	if len(x.Sub.GroupBy) > 0 || x.Sub.Having != nil {
		return nil, fmt.Errorf("plan: EXISTS over grouped subqueries is not supported")
	}
	counted := &sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{{Expr: &sqlparser.FuncCall{Name: "COUNT", Star: true}}},
		From:  x.Sub.From,
		Where: x.Sub.Where,
		Limit: -1,
	}
	param, err := b.bindScalarSubquery(counted)
	if err != nil {
		return nil, err
	}
	var out expr.Expr = &expr.Binary{
		Op: sqlparser.OpGt, L: param, R: &expr.Const{V: types.NewFloat(0)},
	}
	if x.Negated {
		out = &expr.Not{X: out}
	}
	return out, nil
}

// bindScalarSubquery plans a scalar subquery block and returns its
// placeholder (ScalarParam for uncorrelated, GroupParam for
// equality-correlated subqueries).
func (b *binder) bindScalarSubquery(sel *sqlparser.SelectStmt) (expr.Expr, error) {
	blk, corrOuter, err := b.p.buildBlock(sel, b.sc, ScalarBlock)
	if err != nil {
		return nil, err
	}
	if len(blk.Select) != 1 {
		return nil, fmt.Errorf("plan: scalar subquery must select exactly one column: %s", blk.Label)
	}
	desc := shortLabel(blk.Label)
	b.blk.Deps = append(b.blk.Deps, blk.ID)
	if blk.Kind == GroupScalarBlock {
		keys := make([]expr.Expr, len(corrOuter))
		for i, a := range corrOuter {
			k, err := b.bindExpr(a)
			if err != nil {
				return nil, fmt.Errorf("plan: binding correlation key %s: %w", a.SQL(), err)
			}
			keys[i] = k
		}
		blk.ParamIdx = len(b.p.q.GroupBlocks)
		b.p.q.GroupBlocks = append(b.p.q.GroupBlocks, blk)
		b.p.q.Blocks = append(b.p.q.Blocks, blk)
		return &expr.GroupParam{
			Idx: blk.ParamIdx, Keys: keys, Typ: blk.Select[0].Kind(), Desc: desc,
		}, nil
	}
	blk.ParamIdx = len(b.p.q.ScalarBlocks)
	b.p.q.ScalarBlocks = append(b.p.q.ScalarBlocks, blk)
	b.p.q.Blocks = append(b.p.q.Blocks, blk)
	return &expr.ScalarParam{Idx: blk.ParamIdx, Typ: blk.Select[0].Kind(), Desc: desc}, nil
}

// bindInSubquery plans x IN (SELECT ...) as a SetBlock membership param.
func (b *binder) bindInSubquery(in *sqlparser.InExpr, lhs expr.Expr) (expr.Expr, error) {
	blk, corrOuter, err := b.p.buildBlock(in.Sub, b.sc, SetBlock)
	if err != nil {
		return nil, err
	}
	if len(corrOuter) > 0 || blk.Kind == GroupScalarBlock {
		return nil, fmt.Errorf("plan: correlated IN subqueries are not supported: %s", blk.Label)
	}
	b.blk.Deps = append(b.blk.Deps, blk.ID)
	blk.ParamIdx = len(b.p.q.SetBlocks)
	b.p.q.SetBlocks = append(b.p.q.SetBlocks, blk)
	b.p.q.Blocks = append(b.p.q.Blocks, blk)
	return &expr.SetParam{
		Idx: blk.ParamIdx, X: lhs, Negated: in.Negated, Desc: shortLabel(blk.Label),
	}, nil
}

// shortLabel compresses a subquery's SQL for display.
func shortLabel(sql string) string {
	if len(sql) > 48 {
		return sql[:45] + "..."
	}
	return sql
}

// astResolvable reports whether every column reference in the AST (not
// descending into nested subqueries) resolves within the given input.
func astResolvable(ast sqlparser.Expr, in *Input) bool {
	ok := true
	sqlparser.Walk(ast, func(e sqlparser.Expr) bool {
		if x, isCol := e.(*sqlparser.ColumnRef); isCol {
			if _, _, err := in.resolve(x.Table, x.Name); err != nil {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// splitASTConjuncts flattens top-level ANDs of a parsed expression.
func splitASTConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.Binary); ok && b.Op == sqlparser.OpAnd {
		return append(splitASTConjuncts(b.L), splitASTConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// andAll combines bound conjuncts back into a single predicate.
func andAll(conjs []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &expr.Binary{Op: sqlparser.OpAnd, L: out, R: c}
		}
	}
	return out
}
