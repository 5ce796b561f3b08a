// Package plan turns parsed SQL into FluoDB's executable form: a DAG of
// lineage blocks (§3.3 of the G-OLA paper). Each block is a maximal
// SPJA sub-plan — scan/join/filter followed by at most one aggregation —
// and every nested aggregate subquery becomes its own block whose result
// is broadcast to its parent through a placeholder parameter
// (expr.ScalarParam / expr.GroupParam / expr.SetParam).
package plan

import (
	"fmt"
	"strings"

	"fluodb/internal/agg"
	"fluodb/internal/expr"
	"fluodb/internal/types"
)

// BlockKind describes how a block's output is consumed.
type BlockKind int

const (
	// RootBlock is the top-level query; its output is the query result.
	RootBlock BlockKind = iota
	// ScalarBlock is an uncorrelated scalar subquery (one row, one col).
	ScalarBlock
	// GroupScalarBlock is an equality-correlated scalar subquery: one
	// value per correlation-key group.
	GroupScalarBlock
	// SetBlock is an IN-subquery: a set of keys, optionally filtered by
	// an (uncertain) HAVING predicate.
	SetBlock
)

// String implements fmt.Stringer.
func (k BlockKind) String() string {
	switch k {
	case RootBlock:
		return "root"
	case ScalarBlock:
		return "scalar"
	case GroupScalarBlock:
		return "group-scalar"
	case SetBlock:
		return "set"
	default:
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
}

// DimJoin hash-joins the accumulated row against a dimension table.
// G-OLA streams the fact table and reads dimension tables in entirety
// (§2: "stream through a large fact table while reading smaller
// dimension tables").
type DimJoin struct {
	Table  string
	Alias  string
	Schema types.Schema
	// LeftKey is evaluated over the accumulated row (fact + earlier
	// dims); RightKey over the dimension row.
	LeftKey  expr.Expr
	RightKey expr.Expr
	Left     bool // LEFT JOIN (NULL-extend on miss)
}

// Input is a block's FROM clause: one streamed fact table plus zero or
// more dimension hash-joins. Schema is the concatenation fact ++ dims.
type Input struct {
	Fact      string
	FactAlias string
	Schema    types.Schema
	// Quals[i] is the table alias owning column i (for EXPLAIN).
	Quals []string
}

// AggSpec is one aggregate computed by a block.
type AggSpec struct {
	Name     string // upper-case function name
	Fn       agg.Func
	Params   []types.Value // constant args after the first (QUANTILE q, ...)
	Arg      expr.Expr     // input expression; Const(1) for COUNT(*)
	Distinct bool
	Label    string     // canonical SQL, for dedup and EXPLAIN
	OutKind  types.Kind // result type of the aggregate
}

// NewState builds a fresh state for the spec.
func (a *AggSpec) NewState() (agg.State, error) {
	s, err := a.Fn.NewState(a.Params)
	if err != nil {
		return nil, err
	}
	if a.Distinct {
		s = agg.NewDistinct(s)
	}
	return s, nil
}

// OrderSpec is one ORDER BY term over the block's output columns.
type OrderSpec struct {
	Col  int // output column index
	Desc bool
}

// Block is one lineage block.
//
// Row flow: Input → Where (over Input.Schema) → group by GroupBy,
// folding Aggs → post-aggregate layout [GroupBy values..., Agg results...]
// → Having → Select (both over the post-aggregate layout). For
// non-aggregating blocks (no GroupBy, no Aggs) Having must be nil and
// Select is bound directly over Input.Schema.
type Block struct {
	ID    int
	Kind  BlockKind
	Label string // original subquery SQL, for EXPLAIN/errors

	Input   Input
	Dims    []DimJoin
	Where   expr.Expr // may contain params
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Having  expr.Expr // may contain params
	Select  []expr.Expr
	OutName []string

	// Aggregating reports whether the block has an aggregation step.
	Aggregating bool
	// Distinct deduplicates the output rows of a projection block
	// (SELECT DISTINCT without aggregation).
	Distinct bool

	// ParamIdx is this block's slot in the query's scalar/group/set
	// param arrays (by Kind); -1 for the root.
	ParamIdx int

	// Deps lists the block IDs whose parameters this block references.
	Deps []int

	// Root-only ordering/limit.
	OrderBy []OrderSpec
	Limit   int // -1 = none
	Offset  int // 0 = none
}

// OutSchema derives the output schema of the block.
func (b *Block) OutSchema() types.Schema {
	s := make(types.Schema, len(b.Select))
	for i, e := range b.Select {
		s[i] = types.Column{Name: b.OutName[i], Type: e.Kind()}
	}
	return s
}

// PostAggWidth is the width of the post-aggregate layout.
func (b *Block) PostAggWidth() int { return len(b.GroupBy) + len(b.Aggs) }

// EstimatedColumns reports, per select column, whether it is an
// estimate and so carries a confidence interval: it depends on
// aggregate slots (post-aggregate positions at or beyond the group-by
// width) or on nested-subquery parameters. Any other column is a key
// passed through exactly.
func (b *Block) EstimatedColumns() []bool {
	out := make([]bool, len(b.Select))
	for c, e := range b.Select {
		out[c] = expr.HasParams(e)
		expr.Walk(e, func(x expr.Expr) bool {
			if col, ok := x.(*expr.Col); ok && col.Idx >= len(b.GroupBy) {
				out[c] = true
			}
			return !out[c]
		})
	}
	return out
}

// Query is a compiled query: blocks in dependency order (every block
// appears after the blocks it depends on; the root is last).
type Query struct {
	SQL    string
	Blocks []*Block
	Root   *Block
	// Param tables: ScalarBlocks[i] is the block feeding ScalarParam i,
	// and likewise for group and set params.
	ScalarBlocks []*Block
	GroupBlocks  []*Block
	SetBlocks    []*Block
}

// Explain renders a human-readable plan.
func (q *Query) Explain() string {
	var sb strings.Builder
	for _, b := range q.Blocks {
		fmt.Fprintf(&sb, "block %d (%s)", b.ID, b.Kind)
		if b.ParamIdx >= 0 {
			fmt.Fprintf(&sb, " -> $%d", b.ParamIdx)
		}
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "  from %s", b.Input.Fact)
		for _, d := range b.Dims {
			join := "join"
			if d.Left {
				join = "left join"
			}
			fmt.Fprintf(&sb, " %s %s on %s = %s", join, d.Table, d.LeftKey, d.RightKey)
		}
		sb.WriteString("\n")
		if b.Where != nil {
			fmt.Fprintf(&sb, "  where %s\n", b.Where)
		}
		if len(b.GroupBy) > 0 {
			parts := make([]string, len(b.GroupBy))
			for i, g := range b.GroupBy {
				parts[i] = g.String()
			}
			fmt.Fprintf(&sb, "  group by %s\n", strings.Join(parts, ", "))
		}
		for i, a := range b.Aggs {
			fmt.Fprintf(&sb, "  agg[%d] %s\n", i, a.Label)
		}
		if b.Having != nil {
			fmt.Fprintf(&sb, "  having %s\n", b.Having)
		}
		parts := make([]string, len(b.Select))
		for i, e := range b.Select {
			parts[i] = fmt.Sprintf("%s AS %s", e, b.OutName[i])
		}
		fmt.Fprintf(&sb, "  select %s\n", strings.Join(parts, ", "))
		if len(b.Deps) > 0 {
			fmt.Fprintf(&sb, "  deps %v\n", b.Deps)
		}
	}
	return sb.String()
}

// uncertainComparisonCount counts θ-comparisons in e that touch params —
// a plan statistic used by EXPLAIN and tests.
func uncertainComparisonCount(e expr.Expr) int {
	n := 0
	expr.Walk(e, func(x expr.Expr) bool {
		if b, ok := x.(*expr.Binary); ok && b.Op.IsComparison() && expr.HasParams(b) {
			n++
		}
		if _, ok := x.(*expr.SetParam); ok {
			n++
		}
		return true
	})
	return n
}

// UncertainPredicates counts the uncertain predicates in the block's
// WHERE and HAVING clauses.
func (b *Block) UncertainPredicates() int {
	return uncertainComparisonCount(b.Where) + uncertainComparisonCount(b.Having)
}

// validateNoParamsInAggArgs enforces G-OLA's lineage-block boundary: a
// nested aggregate's value may appear in predicates (WHERE/HAVING) but
// not inside another aggregate's argument — that pattern would make
// every previously folded tuple stale whenever the inner estimate
// refines, which delta maintenance cannot repair (§3.3).
func validateNoParamsInAggArgs(b *Block) error {
	for _, a := range b.Aggs {
		if a.Arg != nil && expr.HasParams(a.Arg) {
			return fmt.Errorf(
				"plan: %s references a nested aggregate inside an aggregate argument; "+
					"G-OLA broadcasts nested aggregate results only into predicates "+
					"(WHERE/HAVING), not into aggregate inputs", a.Label)
		}
	}
	for _, g := range b.GroupBy {
		if expr.HasParams(g) {
			return fmt.Errorf("plan: GROUP BY expressions cannot reference nested aggregates")
		}
	}
	return nil
}
