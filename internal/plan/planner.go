package plan

import (
	"fmt"
	"strings"

	"fluodb/internal/agg"
	"fluodb/internal/expr"
	"fluodb/internal/sqlparser"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Planner compiles parsed SQL into a block DAG against a catalog.
type Planner struct {
	cat    *storage.Catalog
	q      *Query
	nextID int
}

// Compile parses and plans a SQL query.
func Compile(sql string, cat *storage.Catalog) (*Query, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return CompileStmt(stmt, sql, cat)
}

// CompileStmt plans an already-parsed statement.
func CompileStmt(stmt *sqlparser.SelectStmt, sql string, cat *storage.Catalog) (*Query, error) {
	p := &Planner{cat: cat, q: &Query{SQL: sql}}
	root, _, err := p.buildBlock(stmt, nil, RootBlock)
	if err != nil {
		return nil, err
	}
	p.q.Blocks = append(p.q.Blocks, root)
	p.q.Root = root
	// Renumber block IDs to match dependency order (children first), so
	// EXPLAIN output and error messages read top-down.
	remap := make(map[int]int, len(p.q.Blocks))
	for i, b := range p.q.Blocks {
		remap[b.ID] = i
	}
	for _, b := range p.q.Blocks {
		b.ID = remap[b.ID]
		for i, d := range b.Deps {
			b.Deps[i] = remap[d]
		}
	}
	return p.q, nil
}

// buildInput resolves the FROM clause into a streamed fact table plus
// dimension hash joins (left-deep).
func (p *Planner) buildInput(from sqlparser.TableRef) (Input, []DimJoin, error) {
	if from == nil {
		return Input{}, nil, fmt.Errorf("plan: a FROM clause is required")
	}
	switch t := from.(type) {
	case *sqlparser.BaseTable:
		tab, ok := p.cat.Get(t.Name)
		if !ok {
			return Input{}, nil, fmt.Errorf("plan: unknown table %q", t.Name)
		}
		schema := tab.Schema()
		in := Input{
			Fact:      tab.Name(),
			FactAlias: t.Alias,
			Schema:    append(types.Schema(nil), schema...),
			Quals:     make([]string, len(schema)),
		}
		for i := range in.Quals {
			in.Quals[i] = t.Alias
		}
		return in, nil, nil
	case *sqlparser.Join:
		in, dims, err := p.buildInput(t.Left)
		if err != nil {
			return Input{}, nil, err
		}
		right, ok := t.Right.(*sqlparser.BaseTable)
		if !ok {
			return Input{}, nil, fmt.Errorf("plan: join right side must be a base table")
		}
		dimTab, ok2 := p.cat.Get(right.Name)
		if !ok2 {
			return Input{}, nil, fmt.Errorf("plan: unknown table %q", right.Name)
		}
		eq, ok := t.On.(*sqlparser.Binary)
		if !ok || eq.Op != sqlparser.OpEq {
			return Input{}, nil, fmt.Errorf(
				"plan: join conditions must be a single equality (got %s); "+
					"comma joins are not supported", t.On.SQL())
		}
		dimSchema := dimTab.Schema()
		dimInput := Input{
			Fact: dimTab.Name(), FactAlias: right.Alias,
			Schema: append(types.Schema(nil), dimSchema...),
			Quals:  make([]string, len(dimSchema)),
		}
		for i := range dimInput.Quals {
			dimInput.Quals[i] = right.Alias
		}
		// Classify the equality sides: one over the accumulated input,
		// one over the dimension table.
		leftAST, rightAST := eq.L, eq.R
		if !astResolvable(leftAST, &in) || !astResolvable(rightAST, &dimInput) {
			leftAST, rightAST = rightAST, leftAST
		}
		if !astResolvable(leftAST, &in) || !astResolvable(rightAST, &dimInput) {
			return Input{}, nil, fmt.Errorf(
				"plan: join condition %s must relate the joined table to the tables before it",
				t.On.SQL())
		}
		lb := &binder{p: p, sc: &scope{in: &in}, blk: &Block{}}
		leftKey, err := lb.bindExpr(leftAST)
		if err != nil {
			return Input{}, nil, err
		}
		rb := &binder{p: p, sc: &scope{in: &dimInput}, blk: &Block{}}
		rightKey, err := rb.bindExpr(rightAST)
		if err != nil {
			return Input{}, nil, err
		}
		dims = append(dims, DimJoin{
			Table: dimTab.Name(), Alias: right.Alias, Schema: dimInput.Schema,
			LeftKey: leftKey, RightKey: rightKey, Left: t.Type == sqlparser.LeftJoin,
		})
		in.Schema = append(in.Schema, dimInput.Schema...)
		in.Quals = append(in.Quals, dimInput.Quals...)
		return in, dims, nil
	default:
		return Input{}, nil, fmt.Errorf("plan: unsupported FROM clause %T", from)
	}
}

// astHasAggregate reports whether the AST contains an aggregate call
// outside nested subqueries.
func astHasAggregate(ast sqlparser.Expr) bool {
	found := false
	sqlparser.Walk(ast, func(e sqlparser.Expr) bool {
		if x, ok := e.(*sqlparser.FuncCall); ok && agg.IsAggregate(x.Name) {
			found = true
		}
		return !found
	})
	return found
}

// buildBlock compiles one SELECT into a lineage block. For subquery
// blocks (outer != nil) it detects equality correlation and returns the
// outer-side key ASTs for the parent binder to bind.
func (p *Planner) buildBlock(stmt *sqlparser.SelectStmt, outer *scope, kind BlockKind) (*Block, []sqlparser.Expr, error) {
	blk := &Block{
		ID: p.nextID, Kind: kind, ParamIdx: -1, Limit: -1,
		Label: stmt.SQL(),
	}
	p.nextID++

	input, dims, err := p.buildInput(stmt.From)
	if err != nil {
		return nil, nil, err
	}
	blk.Input = input
	blk.Dims = dims
	sc := &scope{in: &blk.Input, outer: outer}
	b := &binder{p: p, sc: sc, blk: blk}

	// --- correlation pre-pass over WHERE conjuncts ---
	var plainConj []sqlparser.Expr
	var corrInner, corrOuter []sqlparser.Expr
	for _, conj := range splitASTConjuncts(stmt.Where) {
		if kind != RootBlock && outer != nil {
			if bin, ok := conj.(*sqlparser.Binary); ok && bin.Op == sqlparser.OpEq {
				lIn := astResolvable(bin.L, sc.in)
				rIn := astResolvable(bin.R, sc.in)
				lOut := astResolvable(bin.L, outer.in)
				rOut := astResolvable(bin.R, outer.in)
				switch {
				case lIn && !rIn && rOut:
					corrInner = append(corrInner, bin.L)
					corrOuter = append(corrOuter, bin.R)
					continue
				case rIn && !lIn && lOut:
					corrInner = append(corrInner, bin.R)
					corrOuter = append(corrOuter, bin.L)
					continue
				}
			}
		}
		plainConj = append(plainConj, conj)
	}
	if len(corrInner) > 0 {
		if kind == SetBlock {
			return nil, nil, fmt.Errorf("plan: correlated IN subqueries are not supported: %s", blk.Label)
		}
		if len(stmt.GroupBy) > 0 {
			return nil, nil, fmt.Errorf("plan: a correlated scalar subquery cannot also use GROUP BY: %s", blk.Label)
		}
		blk.Kind = GroupScalarBlock
	}

	// --- bind WHERE ---
	var whereConjs []expr.Expr
	for _, conj := range plainConj {
		e, err := b.bindExpr(conj)
		if err != nil {
			return nil, nil, err
		}
		whereConjs = append(whereConjs, e)
	}
	blk.Where = andAll(whereConjs)

	// --- group-by resolution ---
	groupASTs, err := resolveGroupASTs(stmt, blk.Kind, corrInner)
	if err != nil {
		return nil, nil, err
	}
	aggregating := len(groupASTs) > 0 || stmt.Having != nil || blk.Kind != RootBlock && blk.Kind != SetBlock
	for _, it := range stmt.Items {
		if !it.Star && astHasAggregate(it.Expr) {
			aggregating = true
		}
	}
	if blk.Kind == SetBlock && len(groupASTs) == 0 {
		// IN-subquery without GROUP BY: group by the selected key so
		// membership has set semantics.
		if len(stmt.Items) != 1 || stmt.Items[0].Star {
			return nil, nil, fmt.Errorf("plan: IN subquery must select exactly one column: %s", blk.Label)
		}
		groupASTs = []sqlparser.Expr{stmt.Items[0].Expr}
		aggregating = true
	}
	blk.Aggregating = aggregating

	if stmt.Distinct && aggregating {
		return nil, nil, fmt.Errorf("plan: SELECT DISTINCT with aggregation is not supported")
	}

	if !aggregating {
		blk.Distinct = stmt.Distinct
		if err := p.bindPlainSelect(stmt, b, blk); err != nil {
			return nil, nil, err
		}
	} else {
		if err := p.bindAggSelect(stmt, b, blk, groupASTs); err != nil {
			return nil, nil, err
		}
	}

	// --- ORDER BY / LIMIT (root only) ---
	if blk.Kind != RootBlock && (len(stmt.OrderBy) > 0 || stmt.Limit >= 0 || stmt.Offset > 0) {
		return nil, nil, fmt.Errorf("plan: ORDER BY/LIMIT inside subqueries is not supported")
	}
	if blk.Kind == RootBlock {
		if err := bindOrderBy(stmt, blk); err != nil {
			return nil, nil, err
		}
		blk.Limit = stmt.Limit
		blk.Offset = stmt.Offset
	}

	// --- kind-specific validation ---
	switch blk.Kind {
	case ScalarBlock:
		if !aggregating || len(blk.GroupBy) != 0 {
			return nil, nil, fmt.Errorf(
				"plan: scalar subquery must be a single-row aggregate query: %s", blk.Label)
		}
		if len(blk.Select) != 1 {
			return nil, nil, fmt.Errorf("plan: scalar subquery must select one column: %s", blk.Label)
		}
	case GroupScalarBlock:
		if len(blk.Select) != 1 {
			return nil, nil, fmt.Errorf("plan: correlated subquery must select one column: %s", blk.Label)
		}
	case SetBlock:
		if len(blk.Select) != 1 {
			return nil, nil, fmt.Errorf("plan: IN subquery must select one column: %s", blk.Label)
		}
		col, ok := blk.Select[0].(*expr.Col)
		if !ok || col.Idx != 0 || len(blk.GroupBy) != 1 {
			return nil, nil, fmt.Errorf(
				"plan: IN subquery must select its (single) grouping key: %s", blk.Label)
		}
	}

	if err := validateNoParamsInAggArgs(blk); err != nil {
		return nil, nil, err
	}
	if expr.HasParams(andAllGroup(blk.GroupBy)) {
		return nil, nil, fmt.Errorf("plan: GROUP BY cannot reference nested aggregates")
	}
	return blk, corrOuter, nil
}

func andAllGroup(groups []expr.Expr) expr.Expr { return andAll(groups) }

// resolveGroupASTs expands GROUP BY ordinals and aliases; for correlated
// scalar subqueries the correlation keys become the grouping keys.
func resolveGroupASTs(stmt *sqlparser.SelectStmt, kind BlockKind, corrInner []sqlparser.Expr) ([]sqlparser.Expr, error) {
	if kind == GroupScalarBlock {
		return corrInner, nil
	}
	out := make([]sqlparser.Expr, 0, len(stmt.GroupBy))
	for _, g := range stmt.GroupBy {
		if lit, ok := g.(*sqlparser.Literal); ok && lit.Value.Kind() == types.KindInt {
			n := int(lit.Value.Int())
			if n < 1 || n > len(stmt.Items) {
				return nil, fmt.Errorf("plan: GROUP BY ordinal %d out of range", n)
			}
			if stmt.Items[n-1].Star {
				return nil, fmt.Errorf("plan: GROUP BY ordinal cannot reference *")
			}
			out = append(out, stmt.Items[n-1].Expr)
			continue
		}
		if ref, ok := g.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			matched := false
			for _, it := range stmt.Items {
				if it.Alias != "" && strings.EqualFold(it.Alias, ref.Name) {
					out = append(out, it.Expr)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		out = append(out, g)
	}
	return out, nil
}

// bindPlainSelect binds a projection-only block (no aggregation).
func (p *Planner) bindPlainSelect(stmt *sqlparser.SelectStmt, b *binder, blk *Block) error {
	if stmt.Having != nil {
		return fmt.Errorf("plan: HAVING requires aggregation")
	}
	for _, it := range stmt.Items {
		if it.Star {
			for i, c := range blk.Input.Schema {
				blk.Select = append(blk.Select, &expr.Col{Idx: i, Name: c.Name, Typ: c.Type})
				blk.OutName = append(blk.OutName, c.Name)
			}
			continue
		}
		e, err := b.bindExpr(it.Expr)
		if err != nil {
			return err
		}
		blk.Select = append(blk.Select, e)
		blk.OutName = append(blk.OutName, outName(it))
	}
	return nil
}

// bindAggSelect binds an aggregating block: group keys, aggregate specs,
// HAVING, and the select list over the post-aggregate layout.
func (p *Planner) bindAggSelect(stmt *sqlparser.SelectStmt, b *binder, blk *Block, groupASTs []sqlparser.Expr) error {
	for _, g := range groupASTs {
		e, err := b.bindExpr(g)
		if err != nil {
			return err
		}
		blk.GroupBy = append(blk.GroupBy, e)
	}
	pa := &postAgg{
		b: b, blk: blk, groupASTs: groupASTs,
		aliases: map[string]sqlparser.Expr{}, binding: map[string]bool{},
	}
	for _, it := range stmt.Items {
		if it.Star {
			return fmt.Errorf("plan: SELECT * is not allowed with aggregation")
		}
		if it.Alias != "" {
			pa.aliases[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	for _, it := range stmt.Items {
		e, err := pa.bind(it.Expr)
		if err != nil {
			return err
		}
		blk.Select = append(blk.Select, e)
		blk.OutName = append(blk.OutName, outName(it))
	}
	if stmt.Having != nil {
		h, err := pa.bind(stmt.Having)
		if err != nil {
			return err
		}
		blk.Having = h
	}
	return nil
}

// outName derives the output column name of a select item.
func outName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*sqlparser.ColumnRef); ok {
		return ref.Name
	}
	return it.Expr.SQL()
}

// bindOrderBy resolves ORDER BY terms to output columns (by ordinal,
// alias/output name, or textual match with a select item).
func bindOrderBy(stmt *sqlparser.SelectStmt, blk *Block) error {
	for _, o := range stmt.OrderBy {
		col := -1
		if lit, ok := o.Expr.(*sqlparser.Literal); ok && lit.Value.Kind() == types.KindInt {
			n := int(lit.Value.Int())
			if n < 1 || n > len(blk.Select) {
				return fmt.Errorf("plan: ORDER BY ordinal %d out of range", n)
			}
			col = n - 1
		}
		if col < 0 {
			if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
				for i, name := range blk.OutName {
					if strings.EqualFold(name, ref.Name) {
						col = i
						break
					}
				}
			}
		}
		if col < 0 {
			want := o.Expr.SQL()
			for i, name := range blk.OutName {
				if strings.EqualFold(name, want) {
					col = i
					break
				}
			}
		}
		if col < 0 {
			return fmt.Errorf("plan: ORDER BY %s does not match any output column", o.Expr.SQL())
		}
		blk.OrderBy = append(blk.OrderBy, OrderSpec{Col: col, Desc: o.Desc})
	}
	return nil
}

// postAgg binds expressions over the post-aggregate layout
// [group keys..., aggregate results...].
type postAgg struct {
	b         *binder
	blk       *Block
	groupASTs []sqlparser.Expr
	aliases   map[string]sqlparser.Expr
	binding   map[string]bool // alias-recursion guard
}

func (pa *postAgg) bind(ast sqlparser.Expr) (expr.Expr, error) {
	// 1. textual match with a grouping expression → group slot
	sql := ast.SQL()
	for i, g := range pa.groupASTs {
		if strings.EqualFold(sql, g.SQL()) {
			return &expr.Col{Idx: i, Name: g.SQL(), Typ: pa.blk.GroupBy[i].Kind()}, nil
		}
	}
	switch x := ast.(type) {
	case *sqlparser.Literal:
		return &expr.Const{V: x.Value}, nil
	case *sqlparser.FuncCall:
		if agg.IsAggregate(x.Name) {
			idx, kind, err := pa.ensureAgg(x)
			if err != nil {
				return nil, err
			}
			return &expr.Col{
				Idx: len(pa.blk.GroupBy) + idx, Name: x.SQL(), Typ: kind,
			}, nil
		}
		return pa.b.bindCall(x, pa.bind)
	case *sqlparser.ColumnRef:
		if x.Table == "" {
			key := strings.ToLower(x.Name)
			if aliasAST, ok := pa.aliases[key]; ok && !pa.binding[key] {
				pa.binding[key] = true
				e, err := pa.bind(aliasAST)
				pa.binding[key] = false
				return e, err
			}
		}
		if _, _, err := pa.b.sc.in.resolve(x.Table, x.Name); err == nil {
			return nil, fmt.Errorf(
				"plan: column %s must appear in GROUP BY or inside an aggregate", x.SQL())
		}
		return pa.b.resolveCol(x) // produces the precise error
	case *sqlparser.Binary:
		l, err := pa.bind(x.L)
		if err != nil {
			return nil, err
		}
		r, err := pa.bind(x.R)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: x.Op, L: l, R: r}, nil
	case *sqlparser.Unary:
		inner, err := pa.bind(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &expr.Not{X: inner}, nil
		}
		return &expr.Neg{X: inner}, nil
	case *sqlparser.Between:
		return pa.b.bindBetween(x, pa.bind)
	case *sqlparser.IsNull:
		inner, err := pa.bind(x.X)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: inner, Negated: x.Negated}, nil
	case *sqlparser.Case:
		return pa.b.bindCase(x, pa.bind)
	case *sqlparser.Subquery:
		return pa.b.bindScalarSubquery(x.Select)
	case *sqlparser.ExistsExpr:
		return pa.b.bindExists(x)
	case *sqlparser.InExpr:
		if x.Sub != nil {
			lhs, err := pa.bind(x.X)
			if err != nil {
				return nil, err
			}
			return pa.b.bindInSubquery(x, lhs)
		}
		lhs, err := pa.bind(x.X)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(x.List))
		for i, e := range x.List {
			le, err := pa.bind(e)
			if err != nil {
				return nil, err
			}
			list[i] = le
		}
		return &expr.InList{X: lhs, List: list, Negated: x.Negated}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T in aggregate context", ast)
	}
}

// ensureAgg registers (or reuses) an aggregate spec, returning its slot
// index and result kind.
func (pa *postAgg) ensureAgg(x *sqlparser.FuncCall) (int, types.Kind, error) {
	label := x.SQL()
	for i, a := range pa.blk.Aggs {
		if a.Label == label {
			return i, a.OutKind, nil
		}
	}
	fn, ok := agg.Lookup(x.Name)
	if !ok {
		return 0, 0, fmt.Errorf("plan: unknown aggregate %s", x.Name)
	}
	spec := AggSpec{Name: strings.ToUpper(x.Name), Fn: fn, Distinct: x.Distinct, Label: label}
	if x.Star {
		if spec.Name != "COUNT" {
			return 0, 0, fmt.Errorf("plan: %s(*) is not supported", spec.Name)
		}
		spec.Arg = &expr.Const{V: types.NewInt(1)}
	} else {
		if len(x.Args) == 0 {
			return 0, 0, fmt.Errorf("plan: %s requires an argument", spec.Name)
		}
		argE, err := pa.b.bindExpr(x.Args[0])
		if err != nil {
			return 0, 0, err
		}
		spec.Arg = argE
		for _, extra := range x.Args[1:] {
			lit, ok := extra.(*sqlparser.Literal)
			if !ok {
				return 0, 0, fmt.Errorf(
					"plan: %s: arguments after the first must be constants", spec.Name)
			}
			spec.Params = append(spec.Params, lit.Value)
		}
	}
	switch spec.Name {
	case "MIN", "MAX":
		spec.OutKind = spec.Arg.Kind()
	default:
		spec.OutKind = types.KindFloat
	}
	// Validate constructor parameters eagerly for a clean compile error.
	if _, err := spec.NewState(); err != nil {
		return 0, 0, err
	}
	pa.blk.Aggs = append(pa.blk.Aggs, spec)
	return len(pa.blk.Aggs) - 1, spec.OutKind, nil
}

// BindConst binds and evaluates a constant expression (no column
// references, no subqueries) — the value expressions of INSERT ...
// VALUES. Scalar functions and arithmetic are allowed.
func BindConst(ast sqlparser.Expr) (types.Value, error) {
	if hasSubqueryAST(ast) {
		return types.Null, fmt.Errorf("plan: subqueries are not allowed in VALUES")
	}
	empty := Input{}
	b := &binder{sc: &scope{in: &empty}, blk: &Block{}}
	e, err := b.bindExpr(ast)
	if err != nil {
		return types.Null, err
	}
	return e.Eval(&expr.Ctx{}), nil
}

// hasSubqueryAST detects subquery nodes before binding (BindConst has no
// planner to compile them with).
func hasSubqueryAST(ast sqlparser.Expr) bool {
	found := false
	sqlparser.Walk(ast, func(e sqlparser.Expr) bool {
		switch x := e.(type) {
		case *sqlparser.Subquery, *sqlparser.ExistsExpr:
			found = true
		case *sqlparser.InExpr:
			found = found || x.Sub != nil
		}
		return !found
	})
	return found
}
