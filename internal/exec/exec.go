// Package exec implements FluoDB's batch execution engine: it evaluates a
// compiled block DAG over full tables, exactly — the "traditional query
// engine" baseline of the paper's §5 (a SparkSQL-style batched engine),
// and the recompute substrate used by the classical-delta-maintenance
// baseline and by G-OLA's variation-range failure recovery.
package exec

import (
	"fmt"
	"sort"

	"fluodb/internal/agg"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Env carries the parameter bindings produced by already-evaluated
// blocks.
type Env struct {
	Scalars []types.Value
	Groups  []expr.GroupLookup
	Sets    []expr.SetLookup
}

// NewEnv allocates binding slots for a query.
func NewEnv(q *plan.Query) *Env {
	return &Env{
		Scalars: make([]types.Value, len(q.ScalarBlocks)),
		Groups:  make([]expr.GroupLookup, len(q.GroupBlocks)),
		Sets:    make([]expr.SetLookup, len(q.SetBlocks)),
	}
}

// Ctx builds an expression context for a row under this environment.
func (e *Env) Ctx(row types.Row) *expr.Ctx {
	return &expr.Ctx{Row: row, Scalars: e.Scalars, Groups: e.Groups, SetsFns: e.Sets}
}

// Result is a materialized query result.
type Result struct {
	Schema types.Schema
	Rows   []types.Row
}

// Run evaluates the whole query over the full tables in the catalog.
func Run(q *plan.Query, cat *storage.Catalog) (*Result, error) {
	env := NewEnv(q)
	for _, b := range q.Blocks {
		if b == q.Root {
			continue
		}
		if err := EvalParamBlock(b, cat, env, 1); err != nil {
			return nil, err
		}
	}
	rows, err := EvalRootBlock(q.Root, cat, env, 1)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: q.Root.OutSchema(), Rows: rows}, nil
}

// EvalParamBlock evaluates a non-root block over its full fact table and
// installs its result into the environment. scale is the extensive-
// aggregate multiplicity (1 for batch execution, k/i when evaluating a
// sample prefix as in §2.2).
func EvalParamBlock(b *plan.Block, cat *storage.Catalog, env *Env, scale float64) error {
	facts, err := factRows(b, cat)
	if err != nil {
		return err
	}
	return EvalParamBlockRows(b, facts, cat, env, scale)
}

// EvalParamBlockRows is EvalParamBlock over an explicit row set (used by
// the delta-maintenance baselines that evaluate growing prefixes).
func EvalParamBlockRows(b *plan.Block, facts []types.Row, cat *storage.Catalog, env *Env, scale float64) error {
	tab, err := BuildAggTable(b, facts, cat, env)
	if err != nil {
		return err
	}
	InstallBinding(b, tab, env, scale)
	return nil
}

// InstallBinding converts a block's aggregate table into its parameter
// binding and installs it into env.
func InstallBinding(b *plan.Block, tab *AggTable, env *Env, scale float64) {
	switch b.Kind {
	case plan.ScalarBlock:
		env.Scalars[b.ParamIdx] = scalarValue(b, tab, env, scale)
	case plan.GroupScalarBlock:
		m := GroupValues(b, tab, env, scale)
		env.Groups[b.ParamIdx] = func(p *expr.GroupParam, ctx *expr.Ctx) (types.Value, bool) {
			v, ok := m[p.KeyString(ctx)]
			return v, ok
		}
	case plan.SetBlock:
		m := SetMembers(b, tab, env, scale)
		env.Sets[b.ParamIdx] = func(x types.Value) bool { return m[types.KeyString1(x)] }
	}
}

// scalarValue finalizes a scalar block (single global group).
func scalarValue(b *plan.Block, tab *AggTable, env *Env, scale float64) types.Value {
	if tab.Len() == 0 {
		// Aggregates over empty input: finalize an empty state set so
		// COUNT yields 0 and the rest yield NULL.
		entry := tab.emptyEntry(b)
		post := postRow(b, entry, scale)
		ctx := env.Ctx(post)
		return b.Select[0].Eval(ctx)
	}
	post := postRow(b, tab.entries[0], scale)
	return b.Select[0].Eval(env.Ctx(post))
}

// groupCols is the identity column projection of a block's group keys.
func groupCols(b *plan.Block) []int {
	cols := make([]int, len(b.GroupBy))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// GroupValues finalizes a group-scalar block into key → value.
func GroupValues(b *plan.Block, tab *AggTable, env *Env, scale float64) map[string]types.Value {
	cols := groupCols(b)
	out := make(map[string]types.Value, tab.Len())
	for _, e := range tab.Entries() {
		post := postRow(b, e, scale)
		out[e.Key.KeyString(cols)] = b.Select[0].Eval(env.Ctx(post))
	}
	return out
}

// SetMembers finalizes a set block into the set of member keys
// (applying HAVING).
func SetMembers(b *plan.Block, tab *AggTable, env *Env, scale float64) map[string]bool {
	out := make(map[string]bool, tab.Len())
	for _, entry := range tab.Entries() {
		post := postRow(b, entry, scale)
		if b.Having != nil && !b.Having.Eval(env.Ctx(post)).Truthy() {
			continue
		}
		// Key of the SetParam lookup: the single selected group key.
		keyVal := b.Select[0].Eval(env.Ctx(post))
		out[types.KeyString1(keyVal)] = true
	}
	return out
}

// EvalRootBlock evaluates the root block over its full fact table.
func EvalRootBlock(b *plan.Block, cat *storage.Catalog, env *Env, scale float64) ([]types.Row, error) {
	facts, err := factRows(b, cat)
	if err != nil {
		return nil, err
	}
	return EvalRootBlockRows(b, facts, cat, env, scale)
}

// EvalRootBlockRows evaluates the root block over explicit fact rows.
func EvalRootBlockRows(b *plan.Block, facts []types.Row, cat *storage.Catalog, env *Env, scale float64) ([]types.Row, error) {
	if !b.Aggregating {
		return evalProjection(b, facts, cat, env)
	}
	tab, err := BuildAggTable(b, facts, cat, env)
	if err != nil {
		return nil, err
	}
	return FinalizeRoot(b, tab, env, scale), nil
}

// FinalizeRoot turns an aggregate table into the root's output rows
// (HAVING, projection, ORDER BY, LIMIT).
func FinalizeRoot(b *plan.Block, tab *AggTable, env *Env, scale float64) []types.Row {
	var out []types.Row
	if len(b.GroupBy) == 0 && tab.Len() == 0 {
		// Global aggregate over empty input still yields one row.
		entry := tab.emptyEntry(b)
		post := postRow(b, entry, scale)
		if b.Having == nil || b.Having.Eval(env.Ctx(post)).Truthy() {
			out = append(out, projectRow(b, post, env))
		}
		return out
	}
	for _, e := range tab.Entries() {
		post := postRow(b, e, scale)
		if b.Having != nil && !b.Having.Eval(env.Ctx(post)).Truthy() {
			continue
		}
		out = append(out, projectRow(b, post, env))
	}
	out = sortAndLimit(b, out)
	return applyLimit(b, out)
}

func projectRow(b *plan.Block, post types.Row, env *Env) types.Row {
	ctx := env.Ctx(post)
	row := make(types.Row, len(b.Select))
	for i, e := range b.Select {
		row[i] = e.Eval(ctx)
	}
	return row
}

func sortAndLimit(b *plan.Block, rows []types.Row) []types.Row {
	if len(b.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, o := range b.OrderBy {
				c := types.Compare(rows[i][o.Col], rows[j][o.Col])
				if c != 0 {
					if o.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	return rows
}

// applyLimit applies the block's OFFSET and LIMIT.
func applyLimit(b *plan.Block, rows []types.Row) []types.Row {
	if b.Offset > 0 {
		if b.Offset >= len(rows) {
			return nil
		}
		rows = rows[b.Offset:]
	}
	if b.Limit >= 0 && len(rows) > b.Limit {
		return rows[:b.Limit]
	}
	return rows
}

func evalProjection(b *plan.Block, facts []types.Row, cat *storage.Catalog, env *Env) ([]types.Row, error) {
	joiner, err := NewJoiner(b, cat)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	var seen map[string]bool
	var allCols []int
	if b.Distinct {
		seen = map[string]bool{}
		allCols = make([]int, len(b.Select))
		for i := range allCols {
			allCols[i] = i
		}
	}
	for _, f := range facts {
		rows := joiner.Join(f)
		for _, row := range rows {
			ctx := env.Ctx(row)
			if b.Where != nil && !b.Where.Eval(ctx).Truthy() {
				continue
			}
			proj := projectRow(b, row, env)
			if b.Distinct {
				key := proj.KeyString(allCols)
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			out = append(out, proj)
		}
	}
	out = sortAndLimit(b, out)
	out = applyLimit(b, out)
	return out, nil
}

// factRows fetches the block's fact table rows.
func factRows(b *plan.Block, cat *storage.Catalog) ([]types.Row, error) {
	t, ok := cat.Get(b.Input.Fact)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", b.Input.Fact)
	}
	return t.Rows(), nil
}

// Joiner joins a fact row against the block's dimension hash tables.
type Joiner struct {
	dims   []*dimTable
	hasDim bool
	// one is a reusable single-row result for the no-dimension fast
	// path; valid until the next Join call (callers consume the result
	// before joining the next tuple).
	one [1]types.Row
}

type dimTable struct {
	spec plan.DimJoin
	m    map[string][]types.Row
}

// NewJoiner builds the dimension hash tables for a block (G-OLA reads
// dimension tables in entirety once; the fact table streams).
func NewJoiner(b *plan.Block, cat *storage.Catalog) (*Joiner, error) {
	j := &Joiner{}
	for _, d := range b.Dims {
		t, ok := cat.Get(d.Table)
		if !ok {
			return nil, fmt.Errorf("exec: unknown dimension table %q", d.Table)
		}
		dt := &dimTable{spec: d, m: make(map[string][]types.Row, t.NumRows())}
		for _, row := range t.Rows() {
			k := d.RightKey.Eval(&expr.Ctx{Row: row})
			if k.IsNull() {
				continue
			}
			key := types.KeyString1(k)
			dt.m[key] = append(dt.m[key], row)
		}
		j.dims = append(j.dims, dt)
		j.hasDim = true
	}
	return j, nil
}

// Join expands one fact row into joined rows (empty when an inner join
// misses). The result is only valid until the next Join call.
func (j *Joiner) Join(fact types.Row) []types.Row {
	if !j.hasDim {
		j.one[0] = fact
		return j.one[:]
	}
	acc := []types.Row{fact}
	for _, dt := range j.dims {
		var next []types.Row
		width := len(dt.spec.Schema)
		for _, row := range acc {
			k := dt.spec.LeftKey.Eval(&expr.Ctx{Row: row})
			var matches []types.Row
			if !k.IsNull() {
				matches = dt.m[types.KeyString1(k)]
			}
			if len(matches) == 0 {
				if dt.spec.Left {
					ext := make(types.Row, len(row)+width)
					copy(ext, row)
					for i := 0; i < width; i++ {
						ext[len(row)+i] = types.Null
					}
					next = append(next, ext)
				}
				continue
			}
			for _, m := range matches {
				ext := make(types.Row, 0, len(row)+width)
				ext = append(ext, row...)
				ext = append(ext, m...)
				next = append(next, ext)
			}
		}
		acc = next
	}
	return acc
}

// AggTable is a block's grouped aggregation state: an open-addressing
// hash table keyed by the group-by row itself (types.Row.HashKey with
// types.KeyEqual verification), preserving insertion order for
// deterministic output. Group lookup never materializes a key string.
type AggTable struct {
	entries []*GroupEntry
	hashes  []uint64 // HashKey per entry, parallel to entries
	slots   []int32  // 1-based indexes into entries; 0 = empty
	mask    uint64
	// scratch buffers for per-tuple key evaluation.
	keyRow types.Row
	cols   []int
}

// GroupEntry is one group's key values and aggregate states.
type GroupEntry struct {
	Key    types.Row
	States []agg.State
}

// NewAggTable creates an empty table.
func NewAggTable() *AggTable {
	return &AggTable{}
}

// Len returns the number of live groups.
func (t *AggTable) Len() int { return len(t.entries) }

// Entries returns the group entries in insertion order (read-only).
func (t *AggTable) Entries() []*GroupEntry { return t.entries }

// emptyEntry builds a zero-group entry (for global aggregates over empty
// input).
func (t *AggTable) emptyEntry(b *plan.Block) *GroupEntry {
	entry := &GroupEntry{States: make([]agg.State, len(b.Aggs))}
	for i := range b.Aggs {
		s, err := b.Aggs[i].NewState()
		if err != nil {
			panic(fmt.Sprintf("exec: agg state: %v", err)) // validated at plan time
		}
		entry.States[i] = s
	}
	return entry
}

// Entry returns (creating if needed) the group entry for the given input
// row. The hit path is allocation-free: key evaluation into a reused
// scratch row, hash, probe.
func (t *AggTable) Entry(b *plan.Block, ctx *expr.Ctx) *GroupEntry {
	if t.cols == nil && len(b.GroupBy) > 0 {
		t.keyRow = make(types.Row, len(b.GroupBy))
		t.cols = make([]int, len(b.GroupBy))
		for i := range t.cols {
			t.cols[i] = i
		}
	}
	for i, g := range b.GroupBy {
		t.keyRow[i] = g.Eval(ctx)
	}
	h := t.keyRow.HashKey(t.cols)
	if t.slots != nil {
		i := h & t.mask
		for {
			s := t.slots[i]
			if s == 0 {
				break
			}
			if t.hashes[s-1] == h && types.KeyEqual(t.entries[s-1].Key, t.keyRow, t.cols) {
				return t.entries[s-1]
			}
			i = (i + 1) & t.mask
		}
	}
	e := t.emptyEntry(b)
	e.Key = t.keyRow.Clone()
	t.insert(e, h)
	return e
}

// insert links a new entry into the probe table (the caller has verified
// the key is absent).
func (t *AggTable) insert(e *GroupEntry, hash uint64) {
	if (len(t.entries)+1)*8 > len(t.slots)*7 {
		t.grow()
	}
	t.entries = append(t.entries, e)
	t.hashes = append(t.hashes, hash)
	idx := int32(len(t.entries)) // 1-based
	i := hash & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = idx
}

func (t *AggTable) grow() {
	n := len(t.slots) * 2
	if n < 16 {
		n = 16
	}
	t.slots = make([]int32, n)
	t.mask = uint64(n - 1)
	for i, h := range t.hashes {
		j := h & t.mask
		for t.slots[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = int32(i + 1)
	}
}

// Fold adds one input row into the table with the given weight.
func (t *AggTable) Fold(b *plan.Block, ctx *expr.Ctx, w float64) {
	e := t.Entry(b, ctx)
	for i := range b.Aggs {
		e.States[i].Add(b.Aggs[i].Arg.Eval(ctx), w)
	}
}

// BuildAggTable streams the fact rows through join + WHERE + GROUP BY.
func BuildAggTable(b *plan.Block, facts []types.Row, cat *storage.Catalog, env *Env) (*AggTable, error) {
	joiner, err := NewJoiner(b, cat)
	if err != nil {
		return nil, err
	}
	tab := NewAggTable()
	for _, f := range facts {
		for _, row := range joiner.Join(f) {
			ctx := env.Ctx(row)
			if b.Where != nil && !b.Where.Eval(ctx).Truthy() {
				continue
			}
			tab.Fold(b, ctx, 1)
		}
	}
	return tab, nil
}

// postRow lays out [group keys..., finalized aggregates...].
func postRow(b *plan.Block, e *GroupEntry, scale float64) types.Row {
	row := make(types.Row, 0, b.PostAggWidth())
	row = append(row, e.Key...)
	for _, s := range e.States {
		row = append(row, s.Result(scale))
	}
	return row
}

// PostRow exposes postRow for the online engine.
func PostRow(b *plan.Block, e *GroupEntry, scale float64) types.Row { return postRow(b, e, scale) }

// PostRowInto is PostRow into a reusable buffer (may be nil); it returns
// the filled buffer. Hot loops that evaluate an expression immediately
// and discard the row use it to avoid per-group allocation.
func PostRowInto(b *plan.Block, e *GroupEntry, scale float64, buf types.Row) types.Row {
	buf = buf[:0]
	buf = append(buf, e.Key...)
	for _, s := range e.States {
		buf = append(buf, s.Result(scale))
	}
	return buf
}

// CloneForWorker returns a joiner sharing the (read-only) dimension hash
// tables but with private per-call scratch, for use by a parallel
// worker.
func (j *Joiner) CloneForWorker() *Joiner {
	c := &Joiner{dims: j.dims, hasDim: j.hasDim}
	return c
}
