// Package baseline implements the two systems the paper compares G-OLA
// against in §5:
//
//   - CDM, classical delta maintenance (in the style of incremental view
//     maintenance [5, 16, 19]): SPJA sub-plans whose predicates carry no
//     nested-aggregate value are maintained incrementally, but any block
//     whose predicate references a nested aggregate must be recomputed
//     over ALL previously seen data whenever the inner estimate refines —
//     which it does at every mini-batch. Per-batch cost therefore grows
//     linearly with the batch index (O(k²)·n total, §3.1).
//
//   - OLA, classic online aggregation (Hellerstein, Haas and Wang [17]):
//     incremental maintenance plus CLT-based error bounds, limited to
//     monotone SPJA queries — it rejects queries with nested aggregate
//     subqueries, which is precisely the limitation G-OLA removes.
package baseline

import (
	"fmt"
	"math"
	"time"

	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Update is one refined answer from a baseline engine.
type Update struct {
	Batch             int
	FractionProcessed float64
	Schema            types.Schema
	Rows              []types.Row
	Elapsed           time.Duration
	// RowsRecomputed counts tuples re-read this batch (the wasted work
	// Figure 3(b) visualizes for CDM).
	RowsRecomputed int64
	// RootRows counts the tuples the root block read this batch: the
	// new mini-batch when it is maintained incrementally, the whole
	// prefix when it is recomputed.
	RootRows int64
}

// CDM executes a query with classical delta maintenance.
type CDM struct {
	q       *plan.Query
	cat     *storage.Catalog
	k       int
	batch   int
	tables  map[string]*cdmStream
	blocks  []*cdmBlock
	rootIdx int
}

type cdmStream struct {
	batches [][]types.Row
	prefix  []types.Row
	total   int
}

type cdmBlock struct {
	b *plan.Block
	// incremental reports whether the block can be maintained by
	// folding only the new mini-batch (no uncertain predicates).
	incremental bool
	tab         *exec.AggTable
}

// NewCDM builds a CDM engine over k mini-batches.
func NewCDM(q *plan.Query, cat *storage.Catalog, k int) (*CDM, error) {
	if !q.Root.Aggregating {
		return nil, fmt.Errorf("baseline: online execution requires an aggregate query")
	}
	c := &CDM{q: q, cat: cat, k: k, tables: map[string]*cdmStream{}}
	for _, b := range q.Blocks {
		if _, ok := c.tables[b.Input.Fact]; !ok {
			t, found := cat.Get(b.Input.Fact)
			if !found {
				return nil, fmt.Errorf("baseline: unknown table %q", b.Input.Fact)
			}
			c.tables[b.Input.Fact] = &cdmStream{batches: t.MiniBatches(k), total: t.NumRows()}
		}
		cb := &cdmBlock{b: b, tab: exec.NewAggTable()}
		// A block is incrementally maintainable iff no predicate that
		// gates its folding references an uncertain value. HAVING is
		// applied at finalize time and does not poison incrementality.
		cb.incremental = !expr.HasParams(b.Where)
		c.blocks = append(c.blocks, cb)
	}
	return c, nil
}

// Done reports whether all batches were processed.
func (c *CDM) Done() bool { return c.batch >= c.k }

// Batch returns the number of batches processed.
func (c *CDM) Batch() int { return c.batch }

// Step processes the next mini-batch, recomputing non-monotone blocks
// over the full prefix, and returns the refined exact-on-prefix answer.
func (c *CDM) Step() (*Update, error) {
	if c.Done() {
		return nil, fmt.Errorf("baseline: all batches processed")
	}
	start := time.Now()
	i := c.batch
	for _, ts := range c.tables {
		if i < len(ts.batches) {
			ts.prefix = append(ts.prefix, ts.batches[i]...)
		}
	}
	env := exec.NewEnv(c.q)
	var recomputed, rootRows int64
	for _, cb := range c.blocks {
		ts := c.tables[cb.b.Input.Fact]
		var rows []types.Row
		if cb.incremental {
			// fold only the new mini-batch into the persistent state
			if i < len(ts.batches) {
				rows = ts.batches[i]
			}
			if err := foldInto(cb.tab, cb.b, rows, c.cat, env); err != nil {
				return nil, err
			}
		} else {
			// the inner estimate changed → classical maintenance must
			// re-read everything seen so far (§3.1)
			rows = ts.prefix
			recomputed += int64(len(rows))
			tab, err := exec.BuildAggTable(cb.b, rows, c.cat, env)
			if err != nil {
				return nil, err
			}
			cb.tab = tab
		}
		if cb.b.Kind != plan.RootBlock {
			scale := c.scaleFor(cb.b)
			exec.InstallBinding(cb.b, cb.tab, env, scale)
		} else {
			rootRows = int64(len(rows))
		}
	}
	c.batch++
	rootCB := c.blocks[len(c.blocks)-1]
	out := exec.FinalizeRoot(c.q.Root, rootCB.tab, env, c.scaleFor(c.q.Root))
	rootTS := c.tables[c.q.Root.Input.Fact]
	return &Update{
		Batch:             c.batch,
		FractionProcessed: frac(len(rootTS.prefix), rootTS.total),
		Schema:            c.q.Root.OutSchema(),
		Rows:              out,
		Elapsed:           time.Since(start),
		RowsRecomputed:    recomputed,
		RootRows:          rootRows,
	}, nil
}

func (c *CDM) scaleFor(b *plan.Block) float64 {
	ts := c.tables[b.Input.Fact]
	if len(ts.prefix) == 0 || ts.total == 0 {
		return 1
	}
	return float64(ts.total) / float64(len(ts.prefix))
}

func frac(seen, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(seen) / float64(total)
}

// foldInto streams rows through a block's join + WHERE into an existing
// aggregate table.
func foldInto(tab *exec.AggTable, b *plan.Block, rows []types.Row, cat *storage.Catalog, env *exec.Env) error {
	joiner, err := exec.NewJoiner(b, cat)
	if err != nil {
		return err
	}
	for _, f := range rows {
		for _, row := range joiner.Join(f) {
			ctx := env.Ctx(row)
			if b.Where != nil && !b.Where.Eval(ctx).Truthy() {
				continue
			}
			tab.Fold(b, ctx, 1)
		}
	}
	return nil
}

// OLA is classic online aggregation: incremental states with CLT error
// bounds, restricted to monotone SPJA queries.
type OLA struct {
	q     *plan.Query
	cat   *storage.Catalog
	k     int
	batch int
	ts    *cdmStream
	tab   *exec.AggTable
	// CLT accumulators per (group entry, agg index): count, mean, M2 of
	// the per-tuple aggregate inputs. Keyed by the entry pointer (stable
	// for the lifetime of the table) so the fold path never materializes
	// a key string.
	clt map[*exec.GroupEntry][]welford
	env *exec.Env
}

type welford struct {
	n    float64
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / w.n
	w.m2 += d * (x - w.mean)
}

func (w *welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / (w.n - 1)
}

// OLAUpdate extends Update with CLT half-widths per row/aggregate.
type OLAUpdate struct {
	Update
	// HalfWidth[r][a] is the ±95% CLT bound of aggregate a in row r
	// (NaN when the aggregate has no CLT estimator).
	HalfWidth [][]float64
}

// NewOLA builds a classic OLA engine. It rejects queries with nested
// aggregate subqueries — the paper's motivating limitation.
func NewOLA(q *plan.Query, cat *storage.Catalog, k int) (*OLA, error) {
	if len(q.Blocks) != 1 {
		return nil, fmt.Errorf(
			"baseline: classic OLA supports only SPJA queries; %q has nested aggregate subqueries "+
				"(this is the limitation G-OLA removes)", q.SQL)
	}
	if !q.Root.Aggregating {
		return nil, fmt.Errorf("baseline: online execution requires an aggregate query")
	}
	t, ok := cat.Get(q.Root.Input.Fact)
	if !ok {
		return nil, fmt.Errorf("baseline: unknown table %q", q.Root.Input.Fact)
	}
	return &OLA{
		q: q, cat: cat, k: k,
		ts:  &cdmStream{batches: t.MiniBatches(k), total: t.NumRows()},
		tab: exec.NewAggTable(),
		clt: map[*exec.GroupEntry][]welford{},
		env: exec.NewEnv(q),
	}, nil
}

// Done reports whether all batches were processed.
func (o *OLA) Done() bool { return o.batch >= o.k }

// Step folds the next mini-batch and returns the refined estimate with
// CLT error bounds.
func (o *OLA) Step() (*OLAUpdate, error) {
	if o.Done() {
		return nil, fmt.Errorf("baseline: all batches processed")
	}
	start := time.Now()
	i := o.batch
	b := o.q.Root
	var rows []types.Row
	if i < len(o.ts.batches) {
		rows = o.ts.batches[i]
	}
	o.ts.prefix = append(o.ts.prefix, rows...)
	joiner, err := exec.NewJoiner(b, o.cat)
	if err != nil {
		return nil, err
	}
	for _, f := range rows {
		for _, row := range joiner.Join(f) {
			ctx := o.env.Ctx(row)
			if b.Where != nil && !b.Where.Eval(ctx).Truthy() {
				continue
			}
			entry := o.tab.Entry(b, ctx)
			ws, ok := o.clt[entry]
			if !ok {
				ws = make([]welford, len(b.Aggs))
				o.clt[entry] = ws
			}
			for a := range b.Aggs {
				v := b.Aggs[a].Arg.Eval(ctx)
				entry.States[a].Add(v, 1)
				if f64, okf := v.AsFloat(); okf {
					ws[a].add(f64)
				}
			}
		}
	}
	o.batch++
	scale := 1.0
	if len(o.ts.prefix) > 0 {
		scale = float64(o.ts.total) / float64(len(o.ts.prefix))
	}
	out := exec.FinalizeRoot(b, o.tab, o.env, scale)
	up := &OLAUpdate{Update: Update{
		Batch:             o.batch,
		FractionProcessed: frac(len(o.ts.prefix), o.ts.total),
		Schema:            b.OutSchema(),
		Rows:              out,
		Elapsed:           time.Since(start),
	}}
	up.HalfWidth = o.halfWidths(out, scale)
	return up, nil
}

// halfWidths computes 95% CLT bounds for AVG/SUM/COUNT cells; other
// aggregates get NaN (classic OLA has no closed-form estimator for
// them — one of the S-AQP pain points §1 discusses).
func (o *OLA) halfWidths(rows []types.Row, scale float64) [][]float64 {
	b := o.q.Root
	const z = 1.96
	out := make([][]float64, len(rows))
	for r := range rows {
		out[r] = make([]float64, len(b.Aggs))
		// Recover the group key from the leading group-by columns of the
		// finalized row only when the projection passes them through; we
		// instead re-derive via the table order, which FinalizeRoot
		// preserves for non-limited, non-ordered queries. For simplicity
		// and robustness the bounds are computed per emitted row index
		// when the shapes line up, else NaN.
		for a := range b.Aggs {
			out[r][a] = math.NaN()
		}
	}
	// Row ↔ group alignment only holds when FinalizeRoot emitted every
	// group in table order (no HAVING filtering, ordering, or limit).
	if len(b.OrderBy) > 0 || b.Limit >= 0 || b.Having != nil || len(rows) != o.tab.Len() {
		return out
	}
	idx := 0
	for _, entry := range o.tab.Entries() {
		if idx >= len(rows) {
			break
		}
		ws := o.clt[entry]
		if ws == nil {
			idx++
			continue
		}
		for a := range b.Aggs {
			w := &ws[a]
			if w.n < 2 {
				continue
			}
			se := math.Sqrt(w.variance() / w.n)
			switch b.Aggs[a].Name {
			case "AVG":
				out[idx][a] = z * se
			case "SUM":
				out[idx][a] = z * se * w.n * scale
			case "COUNT":
				// binomial-ish bound on the scaled count
				p := w.n / float64(maxInt(len(o.ts.prefix), 1))
				out[idx][a] = z * scale * math.Sqrt(w.n*(1-p))
			}
		}
		idx++
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
