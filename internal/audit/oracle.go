// Package audit is the statistical-correctness observability layer: it
// checks the two claims G-OLA's usefulness rests on (§4 of the paper)
// against machine-verifiable ground truth. (1) Accuracy: the reported
// 95% bootstrap confidence intervals must actually cover the exact
// answer about 95% of the time — measured over seeded replications as
// empirical coverage, alongside relative error and CI width per
// mini-batch. (2) Consistency: a committed deterministic decision must
// never be contradicted (the invariant monitor in internal/core). The
// OLA literature flags unvalidated error guarantees as the recurring
// failure mode of online-aggregation systems; this package turns them
// into a regression gate (scripts/check.sh) and a reproducible artifact
// (BENCH_accuracy.json, `flbench -experiment audit`).
package audit

import (
	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Oracle holds a query's exact answer, computed by the batch executor
// over the full tables, indexed by the non-aggregated output columns so
// online snapshot rows can be matched to their true values.
type Oracle struct {
	Schema types.Schema
	// KeyCols are the output columns whose values identify a result row
	// (group keys and other non-aggregated projections); AggCols are the
	// audited columns — the ones the engine puts confidence intervals
	// on. Together they partition the output columns.
	KeyCols []int
	AggCols []int
	rows    map[string]types.Row
}

// NewOracle evaluates the query exactly and indexes the result.
func NewOracle(q *plan.Query, cat *storage.Catalog) (*Oracle, error) {
	res, err := exec.Run(q, cat)
	if err != nil {
		return nil, err
	}
	b := q.Root
	o := &Oracle{Schema: res.Schema, rows: make(map[string]types.Row, len(res.Rows))}
	for c, est := range b.EstimatedColumns() {
		if est {
			o.AggCols = append(o.AggCols, c)
		} else {
			o.KeyCols = append(o.KeyCols, c)
		}
	}
	for _, r := range res.Rows {
		o.rows[r.KeyString(o.KeyCols)] = r
	}
	return o, nil
}

// Truth returns the exact output row matching an estimated row's key
// columns (false when the estimated row's group is not in the exact
// answer — e.g. a group the online engine admitted past an approximate
// HAVING threshold that the exact evaluation rejects).
func (o *Oracle) Truth(estimated types.Row) (types.Row, bool) {
	r, ok := o.rows[estimated.KeyString(o.KeyCols)]
	return r, ok
}

// Rows returns the number of exact result rows.
func (o *Oracle) Rows() int { return len(o.rows) }
