package fluodb

import (
	"context"

	"fluodb/internal/bootstrap"
	"fluodb/internal/core"
	"fluodb/internal/otrace"
	"fluodb/internal/plan"
)

// OnlineOptions configure G-OLA execution; zero values take defaults
// (10 batches, 100 bootstrap trials, 95% confidence, ε = 1σ).
type OnlineOptions = core.Options

// Snapshot is a continuously refined approximate answer: point
// estimates with bootstrap confidence intervals, plus execution
// statistics (uncertain-set size, recomputations).
type Snapshot = core.Snapshot

// CellEstimate is one output cell of a snapshot.
type CellEstimate = core.CellEstimate

// Interval is a confidence interval.
type Interval = bootstrap.Interval

// OnlineMetrics aggregates online execution statistics.
type OnlineMetrics = core.Metrics

// PhaseTimes is a per-phase breakdown of where online execution time
// went (fold, classification, uncertain re-evaluation, range
// maintenance, recompute, snapshot emission), collected on every run.
type PhaseTimes = core.PhaseTimes

// BlockStat is one lineage block's online state and cumulative
// per-phase profile, on every Snapshot and in OnlineMetrics.Blocks.
type BlockStat = core.BlockStat

// TraceEvent is one structured G-OLA event (range commit/failure,
// uncertain flip, recompute trigger).
type TraceEvent = core.Event

// Tracer is the bounded ring of TraceEvents an OnlineOptions.Profile
// query records, its one event store; read it through
// OnlineQuery.Events. Tracer.WriteJSONL exports the events, and
// Tracer.WriteChromeTrace exports the span timeline (Perfetto-loadable
// Chrome trace-event JSON) with the same events attached as instants.
type Tracer = core.Tracer

// SpanTracer is the hierarchical execution timeline an
// OnlineOptions.Profile query records — query → mini-batch → phase →
// per-worker fold task, plus retries, reclassification and
// checkpoint/resume. It stores spans only; export it through
// Tracer.WriteChromeTrace. Read it through OnlineQuery.Spans.
type SpanTracer = otrace.Tracer

// ResourceUsage is one mini-batch's memory observation: per-pool byte
// residency from the engine's resource ledger, GC telemetry attributed
// to the batch, and soft-budget state. It rides on Snapshot.Resources
// and is also available from OnlineQuery.Resources.
type ResourceUsage = core.ResourceUsage

// ConvergencePoint is one batch's convergence-observatory sample:
// relative CI half-width quantiles, uncertain-set churn, throughput
// and the 1/√n fit behind Snapshot.ETA.
type ConvergencePoint = core.ConvergencePoint

// AggConvergence is one output column's half-width quantiles within a
// ConvergencePoint.
type AggConvergence = core.AggConvergence

// ErrDone is returned by OnlineQuery.Step after the last mini-batch.
var ErrDone = core.ErrDone

// QueryError is the typed error surface of the online runtime: every
// non-ErrDone failure is (or wraps) one of these, with Kind naming the
// failure class and Batch/Worker locating it.
type QueryError = core.QueryError

// ErrorKind classifies a QueryError.
type ErrorKind = core.ErrorKind

// Error kinds.
const (
	ErrKindInvalidOptions = core.ErrKindInvalidOptions
	ErrKindWorkerPanic    = core.ErrKindWorkerPanic
	ErrKindPoolStopped    = core.ErrKindPoolStopped
	ErrKindInterrupted    = core.ErrKindInterrupted
	ErrKindCheckpoint     = core.ErrKindCheckpoint
)

// IsInterrupted reports whether err is a QueryError carrying a context
// deadline/cancellation (the snapshot returned alongside it is the
// bounded-time answer).
func IsInterrupted(err error) bool { return core.IsInterrupted(err) }

// OnlineQuery is a running G-OLA execution. Each Step processes one
// mini-batch and returns a refined Snapshot; the caller may stop at any
// time, trading accuracy for latency on the fly (the OLA control knob).
type OnlineQuery struct {
	eng *core.Engine
}

// QueryOnline compiles a SQL aggregate query for online execution.
//
// The engine randomly partitions every fact table the query scans into
// opt.Batches uniform mini-batches and processes one per Step. Nested
// aggregate subqueries are maintained with G-OLA delta maintenance:
// tuples whose predicate decisions are provably stable under the
// current variation ranges fold into incremental state; the small
// uncertain remainder is cached and lazily re-evaluated.
//
// The data should be in random order for the estimates to be unbiased;
// call Table.Shuffle first if the physical order may correlate with
// query attributes (§2 of the paper).
func (db *DB) QueryOnline(sql string, opt OnlineOptions) (*OnlineQuery, error) {
	q, err := plan.Compile(sql, db.cat)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(q, db.cat, opt)
	if err != nil {
		return nil, err
	}
	return &OnlineQuery{eng: eng}, nil
}

// Step processes the next mini-batch and returns the refined snapshot.
// It returns ErrDone once all batches are processed.
func (oq *OnlineQuery) Step() (*Snapshot, error) { return oq.eng.Step() }

// StepContext is Step under a deadline: if ctx is done at the
// mini-batch boundary, the query stops and returns the last committed
// snapshot (Interrupted=true, CIs valid for the processed prefix) with
// an ErrKindInterrupted QueryError. The query is not poisoned — a later
// StepContext with a live context resumes exactly where it stopped.
func (oq *OnlineQuery) StepContext(ctx context.Context) (*Snapshot, error) {
	return oq.eng.StepContext(ctx)
}

// RunContext is Run under a deadline: a context interruption is not an
// error — the bounded-time answer (last committed snapshot, marked
// Interrupted) is returned with a nil error, the OLA contract of
// "cancel any time, keep the best answer so far".
func (oq *OnlineQuery) RunContext(ctx context.Context, fn func(*Snapshot) bool) (*Snapshot, error) {
	return oq.eng.RunContext(ctx, fn)
}

// Checkpoint serializes the query's position at the current mini-batch
// boundary: the batch index, the parameter bindings' epsilon boosts and
// no-commit flag, and the metrics history — a header of under a
// kilobyte. The deterministic set and the uncertain cache are not
// stored; resume re-derives them by replaying the prefix. The bytes are
// deterministic (equal states produce equal checkpoints) and
// integrity-checked on restore. Resume with DB.ResumeOnline.
func (oq *OnlineQuery) Checkpoint() ([]byte, error) { return oq.eng.Checkpoint() }

// Done reports whether all mini-batches have been processed.
func (oq *OnlineQuery) Done() bool { return oq.eng.Done() }

// Batch returns the number of mini-batches processed so far.
func (oq *OnlineQuery) Batch() int { return oq.eng.Batch() }

// Run executes all remaining batches, invoking fn per snapshot; fn
// returning false stops the query early (the user is satisfied with the
// current accuracy). It returns the last snapshot produced.
func (oq *OnlineQuery) Run(fn func(*Snapshot) bool) (*Snapshot, error) {
	return oq.eng.Run(fn)
}

// Metrics returns accumulated execution statistics.
func (oq *OnlineQuery) Metrics() OnlineMetrics { return oq.eng.Metrics() }

// Close releases the query's persistent worker pool. It is idempotent
// and safe to call at any point — a closed query keeps answering
// Metrics/Report, and any further Steps degrade to serial execution. A
// finalizer reclaims the pool of an abandoned query eventually, but
// callers that create many queries should Close each one (or defer it)
// to bound live goroutines.
func (oq *OnlineQuery) Close() { oq.eng.Close() }

// ResumeOnline rebuilds an online query from a Checkpoint taken against
// the same catalog with the same SQL and statistics-affecting options
// (seed, batches, trials, confidence; Parallelism, MaxMemoryBytes and
// observability options may differ — a budget-degraded query resumes
// with its degradation rungs re-engaged). It replays the checkpointed
// prefix under the saved epsilon boosts, so it costs O(prefix) work;
// the resumed query then continues from the checkpoint batch with
// bit-identical snapshots. Mismatched or corrupted bytes are refused
// with an ErrKindCheckpoint QueryError.
func (db *DB) ResumeOnline(sql string, opt OnlineOptions, ckpt []byte) (*OnlineQuery, error) {
	q, err := plan.Compile(sql, db.cat)
	if err != nil {
		return nil, err
	}
	eng, err := core.Resume(q, db.cat, opt, ckpt)
	if err != nil {
		return nil, err
	}
	return &OnlineQuery{eng: eng}, nil
}

// Violation is one committed deterministic decision contradicted by the
// engine's current point state (see AuditInvariants).
type Violation = core.Violation

// AuditInvariants re-checks every committed deterministic decision
// (scalar/group variation ranges, IN-subquery memberships) against the
// engine's current point estimates — the G-OLA consistency invariant.
// After the final mini-batch the point state is exact, so a correct run
// returns nil; any violation means the engine stood by a decision the
// data contradicts. Violations are also emitted as trace events and
// counted in Metrics().InvariantViolations.
func (oq *OnlineQuery) AuditInvariants() []Violation { return oq.eng.AuditInvariants() }

// Report renders an EXPLAIN-ANALYZE-style text profile of the execution
// so far: run totals, the per-phase time breakdown, each lineage block's
// cumulative cost, and the per-batch trajectory; with
// OnlineOptions.Profile, also the span timeline's summary.
func (oq *OnlineQuery) Report() string { return oq.eng.Report() }

// Events returns the query's event ring (nil without
// OnlineOptions.Profile).
func (oq *OnlineQuery) Events() *Tracer { return oq.eng.Events() }

// Spans returns the query's span timeline (nil without
// OnlineOptions.Profile).
func (oq *OnlineQuery) Spans() *SpanTracer { return oq.eng.Spans() }

// ConvergenceSeries returns the per-batch convergence samples recorded
// so far (bounded; decimated on very long runs).
func (oq *OnlineQuery) ConvergenceSeries() []ConvergencePoint { return oq.eng.ConvergenceSeries() }

// Resources returns the most recent mini-batch's memory observation
// (zero-valued before the first committed batch).
func (oq *OnlineQuery) Resources() ResourceUsage { return oq.eng.Resources() }
