package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/types"
)

// CellEstimate is one output cell: the point estimate computed as if the
// query ran on all data seen so far (Q(Dᵢ, k/i) of §2.2), with a
// bootstrap confidence interval for aggregated cells.
type CellEstimate struct {
	Value types.Value
	CI    bootstrap.Interval
	RSD   float64
	HasCI bool
}

// BlockStat is one lineage block's online state and cumulative profile,
// as Snapshot.Blocks and Metrics.Blocks report it (blockStats).
type BlockStat struct {
	ID        int
	Kind      string // "root", "scalar", "group-scalar", "set"
	Label     string // the block's SQL
	Table     string // streamed fact table
	Groups    int    // live groups in the block's aggregate state
	Uncertain int    // cached uncertain tuples
	Columnar  string // eligibility verdict: "columnar" or "rowpath:<reason>"
	// Classifier names what decides the block's uncertain predicate:
	// "tri:kernel" (the tri-state kernel, for new and cached rows),
	// "tri:interp" (the per-row interpreter), "" without one.
	Classifier string
	// Phases is the block's cumulative per-phase processing time (see
	// PhaseTimes).
	Phases PhaseTimes
}

// blockStats profiles every lineage block (dependency order, root last).
func (e *Engine) blockStats() []BlockStat {
	out := make([]BlockStat, len(e.runners))
	for i, r := range e.runners {
		out[i] = BlockStat{
			ID:         r.b.ID,
			Kind:       r.b.Kind.String(),
			Label:      r.b.Label,
			Table:      r.b.Input.Fact,
			Groups:     len(r.tab.entries),
			Uncertain:  len(r.uncertain),
			Columnar:   r.colPl.verdict(),
			Classifier: r.classifier(),
			Phases:     e.blockAcc[i].times(),
		}
	}
	return out
}

// Snapshot is the refined approximate answer after one mini-batch.
type Snapshot struct {
	Batch             int // 1-based index of the batch just processed
	TotalBatches      int
	FractionProcessed float64
	Schema            types.Schema
	Rows              [][]CellEstimate
	UncertainRows     int           // cached uncertain tuples across all blocks
	Recomputes        int           // cumulative range-failure recomputations
	Elapsed           time.Duration // processing time of this batch
	// Phases breaks down where this batch went (including the emission
	// of this snapshot). Worker time is summed under parallel folding,
	// so the breakdown may exceed Elapsed.
	Phases PhaseTimes
	// Blocks profiles each lineage block (dependency order, root last) —
	// the observability the paper's Query Controller exposes (§4).
	Blocks []BlockStat
	// Interrupted marks a bounded-time answer: a deadline or cancel
	// stopped the prefix at a mini-batch boundary and this snapshot is
	// the last committed result (its CIs remain valid for the processed
	// prefix). InterruptReason carries the context error.
	Interrupted     bool
	InterruptReason string
	// Degraded names the MaxMemoryBytes ladder rungs engaged, empty when
	// none: "budget:segcache", then "budget:segcache+evict". The answer
	// is still a valid estimate — rung 1 is a bit-identical fallback,
	// and rung 2's evictions trade deterministic-set precision for
	// bounded memory.
	Degraded string
	// Resources is this batch's memory observation: per-pool byte
	// residency from the resource ledger, GC telemetry attributed to the
	// batch, and soft-budget state (ledger.go, DESIGN.md §15).
	Resources ResourceUsage
	// Convergence is this batch's convergence-observatory sample: CI
	// half-width quantiles, uncertain churn, throughput, and the 1/√n
	// fit behind ETA (converge.go). Zero-valued when no batch has
	// committed (e.g. an interrupted first batch).
	Convergence ConvergencePoint
	// estimated records that the root block has estimated columns, whose
	// cells carry a CI once replicas give evidence (RSD); false once every
	// fact table is complete and the answer is exact.
	estimated bool
}

// RSD returns the mean relative standard deviation across all cells
// that carry a confidence interval — the y-axis of the paper's
// Figure 3(a). Before the last batch, a snapshot with estimated columns
// but no cell carrying a CI has no error estimate at all (every group's
// replicas lack evidence so far), and RSD returns +Inf: no estimate is
// not certainty, so an ε-stop on RSD keeps going. Otherwise a snapshot
// with no CI cell (no estimated columns, or every fact table complete)
// returns 0.
func (s *Snapshot) RSD() float64 {
	var sum float64
	var n int
	for _, row := range s.Rows {
		for _, c := range row {
			if c.HasCI {
				sum += c.RSD
				n++
			}
		}
	}
	if n == 0 {
		if s.estimated && s.Batch < s.TotalBatches {
			return math.Inf(1)
		}
		return 0
	}
	return sum / float64(n)
}

// ValueRows strips the estimates down to plain rows.
func (s *Snapshot) ValueRows() []types.Row {
	out := make([]types.Row, len(s.Rows))
	for i, row := range s.Rows {
		r := make(types.Row, len(row))
		for j, c := range row {
			r[j] = c.Value
		}
		out[i] = r
	}
	return out
}

// snapshotEvalBudget caps the per-snapshot error-estimation work:
// confidence intervals are computed from roughly budget / output-groups
// bootstrap trials (at least 8, at most Trials). Grouped results with
// thousands of groups would otherwise pay groups×Trials expression
// evaluations per refresh.
const snapshotEvalBudget = 50000

// snapshot materializes the current approximate result with error bars.
func (e *Engine) snapshot(elapsed time.Duration) *Snapshot {
	b := e.q.Root
	rr := e.runners[len(e.runners)-1]
	scale := e.scaleFor(b)
	ts := e.tables[b.Input.Fact]

	snap := &Snapshot{
		Batch:         e.batch,
		TotalBatches:  e.opt.Batches,
		Schema:        b.OutSchema(),
		UncertainRows: e.UncertainRows(),
		Recomputes:    e.metrics.Recomputes,
		Elapsed:       elapsed,
		Degraded:      degradeReasons[e.degradeRung],
		Blocks:        e.blockStats(),
	}
	if ts.total > 0 {
		snap.FractionProcessed = float64(ts.seen) / float64(ts.total)
	}

	// Once every fact table is complete the answer is exact: no cell
	// carries an interval, and RSD reads 0.
	complete := true
	for _, t := range e.tables {
		complete = complete && t.seen >= t.total
	}
	hasCI := b.EstimatedColumns()
	if complete {
		hasCI = make([]bool, len(hasCI))
	}
	snap.estimated = slices.Contains(hasCI, true)

	ev := rr.eval()
	// Bound the per-snapshot error-estimation work: with many output
	// groups, compute the CIs from a prefix of the trials (trials are
	// exchangeable, so any subset is a valid — coarser — bootstrap).
	effTrials := min(max(e.evalBudget/max(ev.numVisible(), 1), 8), e.opt.Trials)
	n := 1 + effTrials
	pctx := ev.ctxs.point()
	// Every emitted row's cells are cut from one slab, sized for every
	// visible group; a group HAVING rejects leaves its share unused.
	width := len(b.Select)
	slab := make([]CellEstimate, ev.numVisible()*width)
	rows := make([][]CellEstimate, 0, ev.numVisible())

	// Scratch reused across groups: the point post row, and one column's
	// replica floats (the output reader's).
	var post types.Row
	vals := make([]float64, 0, effTrials)
	// Score each visible group: the point row under the point bindings,
	// then each CI column over the trial lanes through the output reader.
	ev.eachVisible(n, func() {
		ev.finalize(scale)
		post = ev.post(0, post)
		pctx.Row = post
		if b.Having != nil && !b.Having.Eval(pctx).Truthy() {
			return
		}
		k := len(rows) * width
		cells := slab[k : k+width : k+width]
		for c, se := range b.Select {
			pctx.Row = post
			cells[c].Value = se.Eval(pctx)
			if !hasCI[c] {
				continue
			}
			vals = ev.outputReps(c, post, cells[c].Value, nil, vals[:0])
			if len(vals) > 0 {
				// RSD first: it sums in trial order, the order the seed
				// implementation used; the in-place CI sort would perturb
				// the floating-point summation otherwise.
				cells[c].RSD = bootstrap.RSD(vals)
				cells[c].CI = bootstrap.PercentileCIInPlace(vals, e.opt.Confidence)
				cells[c].HasCI = true
			}
		}
		rows = append(rows, cells)
	})

	if len(b.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, o := range b.OrderBy {
				c := types.Compare(rows[i][o.Col].Value, rows[j][o.Col].Value)
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
	if b.Offset > 0 {
		if b.Offset >= len(rows) {
			rows = rows[:0]
		} else {
			rows = rows[b.Offset:]
		}
	}
	if b.Limit >= 0 && len(rows) > b.Limit {
		rows = rows[:b.Limit]
	}
	snap.Rows = rows
	return snap
}
