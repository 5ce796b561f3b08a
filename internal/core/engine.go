package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/chaos"
	"fluodb/internal/expr"
	"fluodb/internal/otrace"
	"fluodb/internal/plan"
	"fluodb/internal/resource"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Options configure a G-OLA execution.
type Options struct {
	// Batches is k, the number of uniform mini-batches (§2.1). The batch
	// granularity controls how often the user sees a refined result.
	Batches int
	// Trials is B, the number of poissonized bootstrap trials used for
	// error estimation and variation ranges (§2.2).
	Trials int
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// EpsilonSigma is the variation-range slack ε expressed in replica
	// standard deviations (§3.2; the paper recommends 1.0).
	EpsilonSigma float64
	// MinGroupSupport is the minimum number of folded tuples a group of
	// a correlated or IN-subquery needs before its variation range may
	// commit deterministic decisions. Below it the group stays
	// uncertain: tiny samples make bootstrap ranges unreliable for
	// extensive aggregates, which would cause recomputation storms.
	MinGroupSupport int
	// BootstrapSampleCap bounds the number of rows (per streamed table)
	// that feed the bootstrap replica states. Error estimation is the
	// dominant online-processing overhead (§5 attributes FluoDB's ~60%
	// overhead to it); maintaining B replica aggregates over every
	// tuple would multiply work by B. Instead replicas are maintained
	// over a deterministic Bernoulli subsample of m = cap rows, and
	// replica deviations are rescaled by √(m/n) (the m-out-of-n
	// bootstrap correction) so confidence intervals and variation
	// ranges keep the dispersion of the full prefix.
	// 0 = auto (max(2000, rows/(2·Trials)), keeping replica work ≈ half
	// the main work); negative = unbounded (replicas over all rows).
	BootstrapSampleCap int
	// FullTables lists tables to read in their entirety on the first
	// mini-batch instead of streaming (§2: the user can specify that
	// only a subset of the input relations is processed online — e.g.
	// stream the big fact table while small inputs load up front).
	// Dimension tables of joins are always read fully regardless.
	FullTables []string
	// SnapshotEvalBudget caps the per-snapshot error-estimation work:
	// confidence intervals are computed from roughly
	// budget / output-groups bootstrap trials (at least 8, at most
	// Trials). Grouped results with thousands of groups would otherwise
	// pay groups×Trials expression evaluations per refresh.
	// 0 = default (50000); negative = unlimited.
	SnapshotEvalBudget int
	// Parallelism is the number of persistent pool workers folding each
	// mini-batch (FluoDB is a parallel online execution framework, §1):
	// the batch splits into contiguous parts, each folded into a
	// worker's private stage and merged back in worker order
	// (parallel.go). 0 = GOMAXPROCS; 1 = serial. Results are identical
	// up to group ordering; full run-to-run determinism requires a fixed
	// value.
	Parallelism int
	// ParallelThreshold is the minimum part size (rows) worth a worker:
	// batches below 2×threshold fold in place, and the part count is
	// clamped to rows/threshold — for mini-batches and uncertain-set
	// reclassification alike. ≤0 resolves to the default (2048). Lower it
	// to engage more workers on small batches (the scaling bench sweeps
	// it); raise it when per-tuple work is very cheap.
	ParallelThreshold int
	// RowPath disables the columnar fold path (columnar.go), forcing the
	// row-oriented per-tuple loop even for eligible blocks. The two paths
	// are bit-identical by construction; this is the A/B switch the
	// benchmarks and the bit-identity tests compare against.
	RowPath bool
	// Seed makes the run deterministic.
	Seed uint64
	// Profile turns on the engine's observability surfaces: a bounded
	// ring of G-OLA events (Engine.Events: range failures, commits,
	// uncertain flips, recomputes) and a hierarchical span timeline
	// (Engine.Spans: query → mini-batch → phase → per-worker task, plus
	// serial retries, reclassification and checkpoint/resume; DESIGN.md
	// §14), with every ring event mirrored onto it as an instant. The
	// per-phase profile (Metrics.Phases) is collected either way, and
	// the traced run executes exactly the kernels the untraced run does.
	Profile bool
	// MaxUncertainRows bounds the cached uncertain set across all blocks
	// (0 = unbounded). When a batch pushes past the budget, the oldest
	// cached tuples are force-resolved by their point-estimate truth
	// (folded or dropped) instead of waiting for their ranges to decide;
	// snapshots are then marked Degraded. A later contradiction still
	// triggers the usual failure-recovery replay, so results stay
	// correct — the degradation is in deterministic-set precision, not
	// in the answer.
	MaxUncertainRows int
	// MaxMemoryBytes is a soft budget on the bytes the query pins across
	// its accounted pools (group tables, weight arenas, uncertain cache,
	// columnar scratch, segment cache; see Snapshot.Resources). 0 =
	// unbudgeted. When a mini-batch commits over budget, a deterministic
	// degradation ladder engages — drop the columnar segment cache, then
	// evict uncertain tuples through the MaxUncertainRows path — each
	// rung falling back to a bit-identical slower/leaner mode
	// (ledger.go).
	// Like Parallelism, the budget is operational: it may differ between
	// a checkpoint and its resume.
	MaxMemoryBytes int64
	// Chaos, when non-nil, injects deterministic faults (worker panics,
	// stragglers, worker-stage corruption, segment-cache drops) into the
	// runtime for robustness testing. Production queries leave it nil.
	Chaos *chaos.Injector
}

// Validate rejects nonsensical option values with a typed error.
// Zero values are untouched — they remain "use the default" sentinels
// (withDefaults) — but explicitly negative or impossible settings no
// longer silently snap to defaults.
func (o Options) Validate() error {
	bad := func(field string, v any) error {
		return queryErr(ErrKindInvalidOptions, fmt.Sprintf("%s = %v", field, v))
	}
	if o.Batches < 0 {
		return bad("Batches", o.Batches)
	}
	if o.Trials < 0 {
		return bad("Trials", o.Trials)
	}
	if o.Confidence < 0 || o.Confidence >= 1 {
		return bad("Confidence", o.Confidence)
	}
	if o.EpsilonSigma < 0 {
		return bad("EpsilonSigma", o.EpsilonSigma)
	}
	if o.MinGroupSupport < 0 {
		return bad("MinGroupSupport", o.MinGroupSupport)
	}
	if o.Parallelism < 0 {
		return bad("Parallelism", o.Parallelism)
	}
	if o.ParallelThreshold < 0 {
		return bad("ParallelThreshold", o.ParallelThreshold)
	}
	if o.MaxUncertainRows < 0 {
		return bad("MaxUncertainRows", o.MaxUncertainRows)
	}
	if o.MaxMemoryBytes < 0 {
		return bad("MaxMemoryBytes", o.MaxMemoryBytes)
	}
	return nil
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Batches <= 0 {
		o.Batches = 10
	}
	if o.Trials <= 0 {
		o.Trials = 100
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.EpsilonSigma <= 0 {
		o.EpsilonSigma = 1.0
	}
	if o.MinGroupSupport <= 0 {
		o.MinGroupSupport = 2
	}
	if o.SnapshotEvalBudget == 0 {
		o.SnapshotEvalBudget = 50000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = defaultParallelism()
	}
	if o.ParallelThreshold <= 0 {
		o.ParallelThreshold = 2048
	}
	if o.Seed == 0 {
		o.Seed = 0x60A11DB
	}
	return o
}

// Metrics aggregates execution statistics.
type Metrics struct {
	Batches            int
	Recomputes         int
	RowsProcessed      int64
	DeterministicFolds int64
	UncertainPerBatch  []int
	BatchDurations     []time.Duration
	// DetFlips counts in-flight contradictions of previously committed
	// deterministic decisions (each one triggers a recovery replay);
	// InvariantViolations counts contradictions still standing when
	// AuditInvariants last ran — nonzero means the estimator committed a
	// decision it never corrected (a statistical-correctness bug).
	DetFlips            int
	InvariantViolations int
	// UncertainEvictions counts cached uncertain tuples force-resolved
	// by the MaxUncertainRows cap or the MaxMemoryBytes budget; nonzero
	// marks snapshots Degraded. BudgetEvictions is the subset forced by
	// the memory budget (ladder rung 2); the cap-driven share is the
	// difference (the reason split behind
	// gola_uncertain_evictions{reason}).
	UncertainEvictions int64
	BudgetEvictions    int64
	// Resource-ledger headline numbers (ledger.go): latest / high-water
	// total byte residency across the accounted pools, the highest
	// degradation rung engaged by MaxMemoryBytes (0 = none), and GC
	// pause time / cycles attributed to this query's mini-batches.
	MemBytes     int64
	MemPeakBytes int64
	DegradeRung  int
	GCPauseNS    int64
	GCCycles     int64
	// Phases is the cumulative per-phase time breakdown across the run;
	// PhasePerBatch holds one breakdown per processed batch (aligned
	// with BatchDurations). Phases are collected with or without
	// Options.Profile.
	Phases        PhaseTimes
	PhasePerBatch []PhaseTimes
	// BlockPhases profiles each lineage block's cumulative cost
	// (dependency order, root last).
	BlockPhases []BlockPhaseStat
}

// tableStream is one streamed fact table partitioned into mini-batches.
type tableStream struct {
	name       string
	batches    [][]types.Row
	starts     []int // global row index of each batch's first row
	seen       int
	total      int
	weightBase uint64
	sampleBase uint64
	// Bootstrap subsampling (see Options.BootstrapSampleCap).
	sampleP   float64
	invP      float64
	sampleCut uint64
	sqrtP     float64
}

// Engine drives G-OLA execution of one query.
type Engine struct {
	q       *plan.Query
	cat     *storage.Catalog
	opt     Options
	bind    *bindings
	runners []*blockRunner
	tables  map[string]*tableStream
	batch   int
	metrics Metrics
	// Memoized per-node expression facts (plans are immutable).
	hpCache  map[expr.Expr]bool
	colCache map[expr.Expr]bool
	// te is the controller's persistent classification environment
	// (triEnv()).
	te *triEnv
	// Profiling state: epoch anchors the phase clock (now) when no span
	// timeline does; trace is the Profile event ring; stepAcc accrues
	// engine-level phases (recompute) for the batch in flight;
	// blockAcc[i] is runner i's cumulative profile; cumAcc the run-wide
	// total. See profile.go.
	epoch    time.Time
	trace    *Tracer
	stepAcc  phaseAcc
	blockAcc []phaseAcc
	cumAcc   phaseAcc
	// Persistent parallel runtime (see pool.go): pool is the lazily
	// created worker pool, closed the Close latch.
	pool   *workerPool
	closed bool
	// Fault surfaces: fatal latches a QueryError that exhausted
	// containment (the engine refuses further Steps); lastSnap is the
	// most recent committed snapshot, returned as the bounded-time
	// answer on deadline/cancel.
	fatal    error
	lastSnap *Snapshot
	// Span timeline state (spans.go): sctl is the controller-track
	// slab; the spanQuery/spanTop/spanBatch/spanFeed/spanReclass fields
	// carry the currently open ancestry so deeper layers (worker tasks,
	// retries) parent their spans without plumbing IDs
	// through every signature. spanBatchNo is the 1-based batch stamped
	// onto worker spans.
	spans       *otrace.Tracer
	sctl        *otrace.Slab
	spanQuery   otrace.SpanID
	spanTop     otrace.SpanID
	spanBatch   otrace.SpanID
	spanFeed    otrace.SpanID
	spanReclass otrace.SpanID
	spanBatchNo int
	// Convergence observatory state (converge.go): bounded per-batch
	// series of CI half-width quantiles, churn and throughput, plus the
	// 1/√n fit backing Snapshot.ETA.
	conv convergeState
	// Resource ledger state (ledger.go): per-pool byte residency with
	// peaks, the runtime/metrics GC sampler and its previous reading
	// (for per-batch attribution), the latched degradation rung of the
	// MaxMemoryBytes ladder with its cached reason string (rebuilt only
	// on state change, so snapshots assign it allocation-free), the
	// latest stamped usage, and the most recent checkpoint buffer size.
	ledger        resource.Ledger
	gcSampler     *resource.Sampler
	gcPrev        resource.GCStats
	degradeRung   int
	degradeReason string
	lastUsage     ResourceUsage
	ckBytes       int64
}

// triEnv returns the controller's classification environment, rebound
// to the current parameter estimates. It is built once; every call
// re-snapshots the scalar values/ranges (group and set lookups read the
// live bindings), so a caller holds it only until the next call.
func (e *Engine) triEnv() *triEnv {
	if e.te == nil {
		e.te = e.newTriEnv()
	}
	e.bind.refreshTriEnv(e.te)
	return e.te
}

// newTriEnv builds a classification environment with memoized
// expression walks. The caches are fully populated at construction
// (warmExprCaches) and read-only afterwards, so worker goroutines may
// share them; the memos capture the maps, not the engine (worker
// contexts must not keep an abandoned engine reachable, see pool.go).
func (e *Engine) newTriEnv() *triEnv {
	te := e.bind.newTriEnv()
	hp, hc := e.hpCache, e.colCache
	te.hp = func(x expr.Expr) bool {
		if v, ok := hp[x]; ok {
			return v
		}
		return expr.HasParams(x)
	}
	te.hc = func(x expr.Expr) bool {
		if v, ok := hc[x]; ok {
			return v
		}
		return hasCols(x)
	}
	return te
}

// warmExprCaches precomputes the per-node expression facts for every
// expression the engine will evaluate, so the memo maps are read-only
// during (possibly parallel) execution.
func (e *Engine) warmExprCaches() {
	add := func(x expr.Expr) {
		if x == nil {
			return
		}
		expr.Walk(x, func(n expr.Expr) bool {
			e.hpCache[n] = expr.HasParams(n)
			e.colCache[n] = hasCols(n)
			return true
		})
	}
	for _, r := range e.runners {
		b := r.b
		add(r.certainWhere)
		add(r.uncertainWhere)
		add(b.Where)
		add(b.Having)
		for _, x := range b.Select {
			add(x)
		}
		for _, g := range b.GroupBy {
			add(g)
		}
		for i := range b.Aggs {
			add(b.Aggs[i].Arg)
		}
		for _, d := range b.Dims {
			add(d.LeftKey)
			add(d.RightKey)
		}
	}
}

// ErrDone is returned by Step after the last mini-batch.
var ErrDone = errors.New("core: all mini-batches processed")

// New builds an engine for a compiled query.
func New(q *plan.Query, cat *storage.Catalog, opt Options) (*Engine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if !q.Root.Aggregating {
		return nil, fmt.Errorf("core: online execution requires an aggregate query " +
			"(projection-only queries have no converging result to refine)")
	}
	e := &Engine{q: q, cat: cat, opt: opt, tables: map[string]*tableStream{},
		hpCache: map[expr.Expr]bool{}, colCache: map[expr.Expr]bool{}}
	e.bind = newBindings(len(q.ScalarBlocks), len(q.GroupBlocks), len(q.SetBlocks), opt.Trials)
	for _, b := range q.Blocks {
		if _, ok := e.tables[b.Input.Fact]; ok {
			continue
		}
		t, ok := cat.Get(b.Input.Fact)
		if !ok {
			return nil, fmt.Errorf("core: unknown table %q", b.Input.Fact)
		}
		batches := t.MiniBatches(opt.Batches)
		for _, full := range opt.FullTables {
			if strings.EqualFold(full, b.Input.Fact) {
				// Whole table arrives in the first mini-batch; later
				// batches are empty and the stream completes early.
				batches = make([][]types.Row, opt.Batches)
				batches[0] = t.Rows()
				break
			}
		}
		ts := &tableStream{
			name:       b.Input.Fact,
			batches:    batches,
			total:      t.NumRows(),
			weightBase: bootstrap.Mix64(opt.Seed ^ hashString(b.Input.Fact)),
			sampleBase: bootstrap.Mix64(opt.Seed ^ hashString(b.Input.Fact) ^ 0x5A3B1E),
		}
		pos := 0
		for _, batch := range ts.batches {
			ts.starts = append(ts.starts, pos)
			pos += len(batch)
		}
		capRows := opt.BootstrapSampleCap
		if capRows == 0 {
			capRows = ts.total / (2 * opt.Trials)
			if capRows < 2000 {
				capRows = 2000
			}
		}
		if capRows < 0 || capRows >= ts.total || ts.total == 0 {
			ts.sampleP = 1
		} else {
			ts.sampleP = float64(capRows) / float64(ts.total)
		}
		ts.invP = 1 / ts.sampleP
		ts.sqrtP = math.Sqrt(ts.sampleP)
		if ts.sampleP >= 1 {
			ts.sampleCut = ^uint64(0)
		} else {
			ts.sampleCut = uint64(ts.sampleP * float64(^uint64(0)))
		}
		e.tables[b.Input.Fact] = ts
	}
	for _, b := range q.Blocks {
		r, err := newBlockRunner(b, e)
		if err != nil {
			return nil, err
		}
		r.idx = len(e.runners)
		e.runners = append(e.runners, r)
	}
	e.warmExprCaches()
	// Build columnar plans at construction time: eligibility is static,
	// and an eligible block's first batch should not be charged for
	// encoding the whole table (the storage layer caches the encoding
	// across engines anyway).
	for _, r := range e.runners {
		r.ensureColPlan()
	}
	e.epoch = time.Now()
	if opt.Profile {
		e.spans = otrace.NewTracer(0)
		e.trace = newTracer(traceCap, e.spans)
	}
	e.sctl = e.spans.Slab(0)
	e.blockAcc = make([]phaseAcc, len(e.runners))
	// GC telemetry: one sampler per engine (no goroutine — reads happen
	// synchronously at mini-batch boundaries), baselined now so the
	// first batch's deltas exclude construction-time allocation.
	e.gcSampler = resource.NewSampler()
	e.gcPrev = e.gcSampler.Read()
	// Let bindings stamp trace events with the plan block that owns each
	// parameter (the bindings only know parameter indexes).
	e.bind.tracer = e.trace
	e.bind.scalarBlocks = make([]int, len(q.ScalarBlocks))
	e.bind.groupBlocks = make([]int, len(q.GroupBlocks))
	e.bind.setBlocks = make([]int, len(q.SetBlocks))
	for _, r := range e.runners {
		switch r.b.Kind {
		case plan.ScalarBlock:
			e.bind.scalarBlocks[r.b.ParamIdx] = r.b.ID
		case plan.GroupScalarBlock:
			e.bind.groupBlocks[r.b.ParamIdx] = r.b.ID
		case plan.SetBlock:
			e.bind.setBlocks[r.b.ParamIdx] = r.b.ID
		}
	}
	return e, nil
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Done reports whether every mini-batch has been processed.
func (e *Engine) Done() bool { return e.batch >= e.opt.Batches }

// Batch returns the number of mini-batches processed so far.
func (e *Engine) Batch() int { return e.batch }

// Metrics returns the accumulated execution statistics, including the
// per-block per-phase profile (rebuilt fresh on each call).
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.DetFlips = e.bind.flips
	m.Phases = e.cumAcc.times()
	m.BlockPhases = make([]BlockPhaseStat, len(e.runners))
	for i, r := range e.runners {
		m.BlockPhases[i] = BlockPhaseStat{
			Block:      r.b.ID,
			Kind:       r.b.Kind.String(),
			Label:      r.b.Label,
			Table:      r.b.Input.Fact,
			Groups:     len(r.tab.order),
			Uncertain:  len(r.uncertain),
			Columnar:   r.colPl.verdict(),
			Classifier: r.classifier(),
			Phases:     e.blockAcc[i].times(),
		}
	}
	return m
}

// Options returns the effective (defaulted) options.
func (e *Engine) Options() Options { return e.opt }

// weightsInto derives the per-trial Poisson(1) multiplicities of a
// tuple, filling buf in place (buf is reallocated only when too small;
// pass the returned slice back in to stay allocation-free). The
// derivation is a pure function of (seed, table, row index, trial), so
// failure-recovery replay regenerates identical resamples.
func (e *Engine) weightsInto(buf []uint8, ts *tableStream, rowIdx int) []uint8 {
	trials := e.opt.Trials
	if cap(buf) < trials {
		buf = make([]uint8, trials)
	}
	buf = buf[:trials]
	key := ts.weightKey(rowIdx, trials)
	for j := 0; j < trials; j += 4 {
		var ks [4]uint8
		ks[0], ks[1], ks[2], ks[3] = bootstrap.PoissonLanes(key)
		copy(buf[j:], ks[:])
		key++
	}
	return buf
}

// weightKey is row rowIdx's first weight hash key: trial j of the row
// is lane j&3 of bootstrap.PoissonLanes(weightKey + j>>2), so a row
// spends ⌈trials/4⌉ consecutive keys.
func (ts *tableStream) weightKey(rowIdx, trials int) uint64 {
	return ts.weightBase + uint64(rowIdx)*uint64((trials+3)/4)
}

// weightsFor is weightsInto with a fresh buffer.
func (e *Engine) weightsFor(ts *tableStream, rowIdx int) []uint8 {
	return e.weightsInto(nil, ts, rowIdx)
}

// sampled reports whether a tuple is in the bootstrap subsample
// (deterministic in the seed, so replay regenerates it).
func (e *Engine) sampled(ts *tableStream, rowIdx int) bool {
	if ts.sampleP >= 1 {
		return true
	}
	return bootstrap.Mix64(ts.sampleBase+uint64(rowIdx)) <= ts.sampleCut
}

// adjustRep applies the m-out-of-n bootstrap correction: replicas are
// computed over a subsample of fraction p, so their dispersion around
// the point estimate is √(1/p) too large; shrink deviations by √p.
func adjustRep(point, rep types.Value, sqrtP float64) types.Value {
	if sqrtP >= 1 {
		return rep
	}
	p, ok1 := point.AsFloat()
	r, ok2 := rep.AsFloat()
	if !ok1 || !ok2 {
		return rep
	}
	return types.NewFloat(p + (r-p)*sqrtP)
}

// adjustLane is adjustRep for a float replica lane, given the point
// estimate as a float (pok false when it is not numeric).
func adjustLane(pf float64, pok bool, rep, sqrtP float64) types.Value {
	if sqrtP < 1 && pok {
		rep = pf + (rep-pf)*sqrtP
	}
	return types.NewFloat(rep)
}

// scaleFor is the multiset multiplicity m = k/i of §2.2 for a block's
// fact table: total rows over rows seen.
func (e *Engine) scaleFor(b *plan.Block) float64 {
	ts := e.tables[b.Input.Fact]
	if ts.seen == 0 || ts.total == 0 {
		return 1
	}
	return float64(ts.total) / float64(ts.seen)
}

// Step processes the next mini-batch and returns a refined snapshot.
func (e *Engine) Step() (*Snapshot, error) {
	return e.StepContext(context.Background())
}

// StepContext is Step with deadline/cancellation support, honored at
// mini-batch boundaries (BlinkDB-style bounded response time): when ctx
// expires the engine stops mid-prefix and returns the last committed
// snapshot — marked Interrupted, with its CI intact — alongside a typed
// ErrKindInterrupted error. The engine itself is not poisoned: a later
// StepContext with a live context resumes where the prefix stopped.
func (e *Engine) StepContext(ctx context.Context) (*Snapshot, error) {
	if e.fatal != nil {
		return nil, e.fatal
	}
	if e.Done() {
		return nil, ErrDone
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			e.trace.Emit(Event{Kind: EvInterrupt, Note: err.Error()})
			return e.boundedSnapshot(err), &QueryError{Kind: ErrKindInterrupted,
				Batch: e.batch, Worker: -1, Err: err,
				Note: "stopped at mini-batch boundary; snapshot is the bounded-time answer"}
		}
	}
	if e.spans != nil && e.spanQuery == 0 {
		e.spanQuery = e.sctl.Begin("query", 0, -1, -1)
		e.spanTop = e.spanQuery
	}
	if e.batch == 0 {
		// Columnar plans are built at construction, before the tracer is
		// attached; surface each block's eligibility verdict (and its
		// uncertain predicate's classifier) on the first step so -trace
		// users see why a block did or didn't vectorize.
		for _, r := range e.runners {
			e.trace.Emit(Event{Kind: EvColPlan, Block: r.b.ID,
				Key: r.b.Input.Fact, Note: joinNote(r.colPl.verdict(), r.classifier())})
		}
	}
	start := time.Now()
	ok, err := e.processBatch(e.batch)
	if err == nil && !ok {
		// Variation-range failure: recompute over all data seen so far
		// with re-widened ranges (§3.2) — the controller replays the
		// processed prefix; per-tuple resamples are regenerated
		// deterministically so the statistics are unchanged.
		e.metrics.Recomputes++
		e.trace.Emit(Event{Kind: EvRecompute, Note: "variation-range failure; replaying processed prefix"})
		rsp, rs := e.phaseBegin("recompute", e.spanQuery, e.batch+1, -1)
		oldTop := e.spanTop
		e.spanTop = rsp
		err = e.replayUpTo(e.batch)
		e.spanTop = oldTop
		e.stepAcc.ns[phaseRecompute] += e.phaseEnd(rsp, rs)
	}
	if err != nil {
		e.fatal = err
		return nil, err
	}
	e.batch++
	e.metrics.Batches = e.batch
	dur := time.Since(start)
	e.metrics.BatchDurations = append(e.metrics.BatchDurations, dur)
	e.metrics.UncertainPerBatch = append(e.metrics.UncertainPerBatch, e.UncertainRows())

	// Flush this batch's phase accumulators: per-runner scratch into the
	// cumulative per-block profiles and the batch total. Replay work is
	// included — its inner phases re-accrued during processBatch calls,
	// its wall time sits in stepAcc's recompute slot.
	var bp phaseAcc
	for i := range e.runners {
		acc := &e.runners[i].acc
		e.blockAcc[i].merge(acc)
		bp.merge(acc)
		acc.reset()
	}
	bp.merge(&e.stepAcc)
	e.stepAcc.reset()

	ssp, ss := e.phaseBegin("snapshot", e.spanQuery, e.batch, -1)
	snap := e.snapshot(dur)
	bp.ns[phaseSnapshot] += e.phaseEnd(ssp, ss)
	e.cumAcc.merge(&bp)
	e.metrics.PhasePerBatch = append(e.metrics.PhasePerBatch, bp.times())
	snap.Phases = bp.times()
	e.observeConvergence(snap, dur)
	e.observeResources(snap)
	if e.Done() {
		e.sctl.End(e.spanQuery)
		// Clear the handles: spans begun after completion (a final
		// Checkpoint, say) must become roots, not children of a span
		// that already ended.
		e.spanQuery, e.spanTop = 0, 0
	}
	e.lastSnap = snap
	return snap, nil
}

// boundedSnapshot materializes the bounded-time answer for an
// interrupted query: a copy of the last committed snapshot (or a fresh
// empty one when no batch has completed), marked Interrupted.
func (e *Engine) boundedSnapshot(cause error) *Snapshot {
	var snap Snapshot
	if e.lastSnap != nil {
		snap = *e.lastSnap
	} else {
		snap = *e.snapshot(0)
	}
	snap.Interrupted = true
	snap.InterruptReason = cause.Error()
	return &snap
}

// Run executes all remaining batches, invoking fn (if non-nil) per
// snapshot; fn returning false stops early (the user is satisfied with
// the accuracy — the OLA control knob).
func (e *Engine) Run(fn func(*Snapshot) bool) (*Snapshot, error) {
	var last *Snapshot
	for !e.Done() {
		s, err := e.Step()
		if err != nil {
			return last, err
		}
		last = s
		if fn != nil && !fn(s) {
			break
		}
	}
	return last, nil
}

// RunContext is Run under a deadline: when ctx expires mid-prefix the
// partial answer is returned with a nil error — interruption is a
// bounded-time result (check Snapshot.Interrupted), not a failure.
// Other errors (fatal containment exhaustion, invalid state) pass
// through.
func (e *Engine) RunContext(ctx context.Context, fn func(*Snapshot) bool) (*Snapshot, error) {
	var last *Snapshot
	for !e.Done() {
		s, err := e.StepContext(ctx)
		if err != nil {
			if IsInterrupted(err) {
				if s != nil {
					return s, nil
				}
				return last, nil
			}
			return last, err
		}
		last = s
		if fn != nil && !fn(s) {
			break
		}
	}
	return last, nil
}

// UncertainRows is the total number of cached uncertain tuples across
// all blocks.
func (e *Engine) UncertainRows() int {
	n := 0
	for _, r := range e.runners {
		n += len(r.uncertain)
	}
	return n
}

// processBatch feeds mini-batch bi through every block in dependency
// order. It returns ok=false if a committed variation range failed; a
// non-nil error means a fault exhausted its containment (worker panic
// surviving every serial retry) and the batch did not complete.
func (e *Engine) processBatch(bi int) (bool, error) {
	e.trace.setBatch(bi + 1)
	bsp := e.sctl.Begin("batch", e.spanTop, bi+1, -1)
	e.spanBatch, e.spanBatchNo = bsp, bi+1
	defer func() {
		e.sctl.End(bsp)
		e.spanBatch, e.spanBatchNo = 0, 0
	}()
	// Advance per-table progress first so estimates computed this batch
	// use the correct multiplicity.
	for _, ts := range e.tables {
		if bi < len(ts.batches) {
			ts.seen = ts.starts[bi] + len(ts.batches[bi])
		}
	}
	// Every binding is about to move: no snapshot-time evaluation of the
	// previous batch may be reused.
	for _, r := range e.runners {
		r.invalidateEval()
	}
	for _, r := range e.runners {
		te := e.triEnv()
		rsp, t0 := e.phaseBegin("reclassify", bsp, bi+1, r.b.ID)
		e.spanReclass = rsp
		folded, dropped := r.reclassify(te)
		e.spanReclass = 0
		r.acc.ns[phaseUncertain] += e.phaseEnd(rsp, t0)
		e.conv.stepOut += int64(folded + dropped)
		if e.trace != nil && (folded != 0 || dropped != 0) {
			e.trace.Emit(Event{Kind: EvFlip, Block: r.b.ID,
				Folded: folded, Dropped: dropped, Kept: len(r.uncertain)})
		}
		ts := e.tables[r.b.Input.Fact]
		if bi < len(ts.batches) {
			if r.colPl != nil && r.colPl.ok && r.colPl.ct != nil &&
				e.opt.Chaos.SegSealDrop(r.b.Input.Fact, bi) {
				// Injected fault on the segment-seal seam: release the
				// sealed segments mid-query. revalidateColPlan re-acquires
				// the encoding (an incremental re-encode) before the feed,
				// so the fold stays columnar and bit-identical.
				if tbl, ok := e.cat.Get(r.b.Input.Fact); ok {
					tbl.DropColumnar()
				}
				r.colPl.ct = nil
				e.traceFault("segseal", r.b.Input.Fact, -1,
					"columnar segment cache dropped")
			}
			rows := ts.batches[bi]
			if r.b == e.q.Root {
				e.metrics.RowsProcessed += int64(len(rows))
			}
			fsp := e.sctl.Begin("feed", bsp, bi+1, r.b.ID)
			e.spanFeed = fsp
			err := r.feedBatchParallel(rows, ts.starts[bi], ts, te)
			e.sctl.End(fsp)
			e.spanFeed = 0
			if err != nil {
				return false, err
			}
		}
		if r.b.Kind != plan.RootBlock {
			gsp, t1 := e.phaseBegin("ranges", bsp, bi+1, r.b.ID)
			failed := e.updateBinding(r)
			r.acc.ns[phaseRanges] += e.phaseEnd(gsp, t1)
			if failed {
				return false, nil
			}
		}
	}
	// Enforce the uncertain-cache cap and the soft memory budget before
	// the batch commits: both evaluation points are deterministic (same
	// state → same evictions / same ladder rungs), so failure-recovery
	// replay re-degrades identically — and every ladder rung falls back
	// to a bit-identical path anyway (ledger.go).
	e.enforceUncertainBudget()
	e.enforceMemoryBudget()
	return true, nil
}

// enforceUncertainBudget applies Options.MaxUncertainRows: while the
// cached uncertain set exceeds the budget, the oldest tuples of the
// largest block cache are force-resolved by point-estimate truth
// (graceful degradation — bounded memory at the cost of deterministic-
// set precision, surfaced via Metrics.UncertainEvictions and
// Snapshot.Degraded).
func (e *Engine) enforceUncertainBudget() {
	budget := e.opt.MaxUncertainRows
	if budget <= 0 {
		return
	}
	if over := e.UncertainRows() - budget; over > 0 {
		e.evictUncertain(over, "cap")
	}
}

// replayUpTo resets all online state and reprocesses batches 0..upto.
// Epsilon boosts persist across attempts, guaranteeing termination. A
// non-nil error means a containment-exhausting fault aborted the
// replay.
func (e *Engine) replayUpTo(upto int) error {
	for attempt := 0; attempt < 16; attempt++ {
		if attempt == 15 {
			// Guaranteed termination: repeated failures mean the
			// variation ranges cannot be trusted for this workload;
			// disable deterministic classification (everything stays
			// uncertain, results stay correct via snapshot-time
			// evaluation).
			e.bind.noCommit = true
			e.trace.Emit(Event{Kind: EvNoCommit,
				Note: "replay attempts exhausted; deterministic classification disabled"})
		}
		e.bind.reset()
		for _, r := range e.runners {
			r.reset()
		}
		for _, ts := range e.tables {
			ts.seen = 0
		}
		ok := true
		for bi := 0; bi <= upto; bi++ {
			bok, err := e.processBatch(bi)
			if err != nil {
				return err
			}
			if !bok {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		e.metrics.Recomputes++
		e.trace.Emit(Event{Kind: EvRecompute, Note: "replay failed; ranges re-widened"})
	}
	return nil
}

// updateBinding recomputes a parameter block's estimate, replicas and
// variation ranges after it consumed a batch; it reports range failure.
func (e *Engine) updateBinding(r *blockRunner) bool {
	scale := e.scaleFor(r.b)
	complete := e.tables[r.b.Input.Fact].seen >= e.tables[r.b.Input.Fact].total
	switch r.b.Kind {
	case plan.ScalarBlock:
		return e.updateScalarBinding(r, scale, complete)
	case plan.GroupScalarBlock:
		e.bind.groups[r.b.ParamIdx].complete = complete
		return e.updateGroupBinding(r, scale, complete)
	case plan.SetBlock:
		e.bind.sets[r.b.ParamIdx].complete = complete
		return e.updateSetBinding(r, scale, complete)
	default:
		return false
	}
}

// pointOnlyRange collapses an exact value into its degenerate range.
func pointOnlyRange(point types.Value) paramRange {
	if f, ok := point.AsFloat(); ok {
		return okRange(bootstrap.Point(f))
	}
	return paramRange{status: rsNull}
}

// paramRangeFor derives a parameter block's variation range for one
// group: CLT slot ranges propagated through the select expression by
// interval arithmetic where possible, bootstrap replicas otherwise.
// te must have been built by e.triEnv(); its rowRanges are clobbered.
func (e *Engine) paramRangeFor(te *triEnv, r *blockRunner, en *onlineEntry, post types.Row, point types.Value, repsFn func() []types.Value, scale float64, boost float64, scratch []paramRange) (paramRange, []paramRange) {
	ts := e.tables[r.b.Input.Fact]
	f := 0.0
	if ts.total > 0 {
		f = float64(ts.seen) / float64(ts.total)
	}
	z := (cltZBase + e.opt.EpsilonSigma) * boost
	if en != nil && en.clt != nil {
		scratch = e.cltRowRanges(r, en, post, scale, f, z, scratch)
		te.rowRanges = scratch
		pr := te.evalRange(r.b.Select[0], post)
		te.rowRanges = nil
		if pr.status == rsOK || pr.status == rsNull {
			return pr, scratch
		}
	}
	return buildRange(point, repsFn(), e.opt.EpsilonSigma*boost), scratch
}

func (e *Engine) updateScalarBinding(r *blockRunner, scale float64, complete bool) bool {
	b := r.b
	ev := r.eval()
	trials := e.opt.Trials
	n := 1 + trials
	var post types.Row
	ev.eachVisible(n, func() {
		ev.finalize(scale, 0, n)
		post = ev.post(0, scale, nil)
	})
	pctx := ev.ctxs.point()
	pctx.Row = post
	point := b.Select[0].Eval(pctx)

	sqrtP := e.tables[b.Input.Fact].sqrtP
	reps := make([]types.Value, trials)
	if vals, null := ev.selectLanes(0, post, n); vals != nil {
		pf, pok := point.AsFloat()
		for j := range reps { // the zero Value is NULL
			if !null[1+j] {
				reps[j] = adjustLane(pf, pok, vals[1+j], sqrtP)
			}
		}
	} else {
		ctxs := ev.ctxs.axis(n)
		var buf types.Row
		for j := range reps {
			buf = ev.post(1+j, scale, buf)
			ctxs[1+j].Row = buf
			reps[j] = adjustRep(point, b.Select[0].Eval(ctxs[1+j]), sqrtP)
		}
	}
	var rng paramRange
	if complete {
		rng = pointOnlyRange(point)
	} else {
		// The global group's table entry holds the CLT moments; cached
		// uncertain rows are excluded from them, which only widens the
		// range (conservative).
		var baseEn *onlineEntry
		if len(r.tab.entries) > 0 {
			baseEn = r.tab.entries[0]
		}
		te := e.triEnv()
		boost := e.bind.scalars[b.ParamIdx].epsBoost
		rng, _ = e.paramRangeFor(te, r, baseEn, post, point,
			func() []types.Value { return reps }, scale, boost, nil)
	}
	return e.bind.updateScalar(b.ParamIdx, point, reps, rng)
}

func (e *Engine) updateGroupBinding(r *blockRunner, scale float64, complete bool) bool {
	b := r.b
	ev := r.eval()
	pctx := ev.ctxs.point()
	sqrtP := e.tables[b.Input.Fact].sqrtP
	g := e.bind.groups[b.ParamIdx]
	boost := g.epsBoost
	// Replica vectors are provided lazily: only the groups probed by
	// snapshot error estimation (or by a bootstrap range fallback) pay
	// for per-trial evaluation.
	g.reps = map[string][]types.Value{}
	g.repFn = e.makeGroupRepFn(r, scale, sqrtP)
	if r.uncertainWhere != nil {
		// A block with its own uncertain predicate can lose a group: one
		// visible only through cached rows that have since been dropped.
		// Its value and range must not outlive it — the parameter reads
		// NULL again — so such a block republishes from scratch. Committed
		// ranges persist: they belong to groups with deterministic support,
		// which never vanish.
		g.point, g.rng = map[string]types.Value{}, map[string]paramRange{}
	}
	te := e.triEnv()
	var postBuf types.Row
	var rngScratch []paramRange
	failed := false
	ev.eachVisible(1, func() {
		en, key := ev.en, ev.skey()
		ev.finalize(scale, 0, 1)
		postBuf = ev.post(0, scale, postBuf)
		post := postBuf
		pctx.Row = post
		point := b.Select[0].Eval(pctx)
		// Support counts deterministically folded tuples only (cached
		// uncertain rows excluded); ranges need at least two subsampled
		// ones to carry dispersion.
		commit := en != nil && en.n >= e.opt.MinGroupSupport &&
			(r.allCLT || en.ns >= e.opt.MinGroupSupport)
		var rng paramRange
		switch {
		case complete:
			rng = pointOnlyRange(point)
			commit = true // an exact value always classifies
		case commit:
			repsFn := func() []types.Value { return g.repsFor(key) }
			rng, rngScratch = e.paramRangeFor(te, r, en, post, point, repsFn, scale, boost, rngScratch)
		}
		if e.bind.updateGroupEntry(b.ParamIdx, key, point, rng, commit) {
			failed = true
		}
	})
	if failed {
		// One widening per failing batch scan: per-key doubling would
		// overshoot the slack exponentially when many marginal groups
		// fail together.
		e.bind.groups[b.ParamIdx].epsBoost *= 2
	}
	return failed
}

// makeGroupRepFn builds the lazy per-group replica evaluator for the
// current batch: the probed key's bucket alone is evaluated, and the
// group's trial values are read from its bank row as float lanes.
func (e *Engine) makeGroupRepFn(r *blockRunner, scale, sqrtP float64) func(string) []types.Value {
	b := r.b
	g := e.bind.groups[b.ParamIdx]
	n := 1 + e.opt.Trials
	var post types.Row
	return func(key string) []types.Value {
		ev := r.eval()
		ev.loadKey(key, n)
		ev.finalize(scale, 0, n)
		point := g.point[key]                     // NULL when the group is unknown
		reps := make([]types.Value, e.opt.Trials) // the zero Value is NULL
		post = ev.post(0, scale, post)
		if vals, null := ev.selectLanes(0, post, n); vals != nil {
			pf, pok := point.AsFloat()
			for j := range reps {
				if ev.evidence(1+j) && !null[1+j] {
					reps[j] = adjustLane(pf, pok, vals[1+j], sqrtP)
				}
			}
			return reps
		}
		ctxs := ev.ctxs.axis(n)
		var buf types.Row
		for j := range reps {
			if ev.evidence(1 + j) {
				buf = ev.post(1+j, scale, buf)
				ctxs[1+j].Row = buf
				reps[j] = adjustRep(point, b.Select[0].Eval(ctxs[1+j]), sqrtP)
			}
		}
		return reps
	}
}

func (e *Engine) updateSetBinding(r *blockRunner, scale float64, complete bool) bool {
	b := r.b
	ev := r.eval()
	pctx := ev.ctxs.point()
	te := e.triEnv()
	sb := e.bind.sets[b.ParamIdx]
	// Per-trial membership is provided lazily: only the keys probed by
	// snapshot error estimation pay for per-trial evaluation.
	sb.reps = map[string][]bool{}
	sb.repFn = e.makeSetRepFn(r, scale)
	if r.uncertainWhere != nil {
		// As in updateGroupBinding: a key visible only through cached rows
		// that have since been dropped is no member any more.
		sb.point, sb.tri = map[string]bool{}, map[string]tri{}
	}
	fracSeen := 0.0
	if ts := e.tables[b.Input.Fact]; ts.total > 0 {
		fracSeen = float64(ts.seen) / float64(ts.total)
	}
	var postBuf types.Row
	failed := false
	ev.eachVisible(1, func() {
		en, key := ev.en, ev.skey()
		ev.finalize(scale, 0, 1)
		postBuf = ev.post(0, scale, postBuf)
		post := postBuf
		// Point membership.
		pctx.Row = post
		member := b.Having == nil || b.Having.Eval(pctx).Truthy()
		// No HAVING: membership is monotone (key present → member) once a
		// deterministically folded tuple backs the key.
		t := triTrue
		if en == nil {
			t = triUnknown
		}
		// Tri-state membership via row ranges on the post-agg layout.
		// Groups below the minimum support (deterministically folded
		// tuples only) never classify deterministically — their bootstrap
		// ranges are unreliable; once the table is fully consumed the
		// point answer is exact.
		if b.Having != nil {
			switch {
			case complete:
				t = triFromBool(member)
			case en == nil || en.n < e.opt.MinGroupSupport ||
				(!r.allCLT && en.ns < e.opt.MinGroupSupport):
				t = triUnknown
			default:
				boost := sb.epsBoost
				z := (cltZBase + e.opt.EpsilonSigma) * boost
				te.rowRanges = e.setRowRanges(r, en, key, post, scale, fracSeen, z, boost, te.rowRanges)
				t = te.evalTri(b.Having, post)
				te.rowRanges = nil
			}
		}
		if e.bind.updateSetEntry(b.ParamIdx, key, member, t) {
			failed = true
		}
	})
	if failed {
		e.bind.sets[b.ParamIdx].epsBoost *= 2
	}
	return failed
}

// setRowRanges builds the per-slot variation ranges for a set block's
// group: exact points for key slots, CLT ranges for estimable
// aggregates, bootstrap replica ranges as the fallback.
func (e *Engine) setRowRanges(r *blockRunner, baseEn *onlineEntry, key string, post types.Row, scale, fracSeen, z, boost float64, out []paramRange) []paramRange {
	b := r.b
	out = out[:0]
	var repVals [][]float64 // built lazily only if a fallback is needed
	for c := range post {
		if c < len(b.GroupBy) {
			if fv, ok := post[c].AsFloat(); ok {
				out = append(out, okRange(bootstrap.Point(fv)))
			} else {
				out = append(out, paramRange{status: rsUnknown})
			}
			continue
		}
		var pr paramRange
		pr.status = rsUnknown
		ia := c - len(b.GroupBy)
		if baseEn != nil && baseEn.clt != nil && r.cltKinds[ia] != cltNone {
			pr = cltRange(r.cltKinds[ia], &baseEn.clt[ia], scale, fracSeen, z)
		}
		if pr.status == rsUnknown {
			if repVals == nil {
				repVals = e.setRepPostValues(r, key, post, scale)
			}
			pr = buildRangeFromFloats(post[c], repVals[c], e.opt.EpsilonSigma*boost, e.opt.Trials)
		}
		out = append(out, pr)
	}
	return out
}

// setRepPostValues evaluates a set-block group's adjusted per-trial
// aggregate values, indexed by post-aggregate column (the bootstrap
// fallback for non-CLT slots; key columns stay empty).
func (e *Engine) setRepPostValues(r *blockRunner, key string, post types.Row, scale float64) [][]float64 {
	b := r.b
	sqrtP := e.tables[b.Input.Fact].sqrtP
	extensive := extensiveSlots(b)
	repVals := make([][]float64, len(post))
	n := 1 + e.opt.Trials
	ev := r.eval()
	ev.loadKey(key, n)
	ev.finalize(scale, 1, n)
	var buf types.Row
	for j := 1; j < n; j++ {
		if !ev.evidence(j) {
			continue
		}
		buf = ev.post(j, scale, buf)
		for c := len(b.GroupBy); c < len(buf); c++ {
			v := buf[c]
			if v.IsNull() && extensive[c] {
				v = types.NewFloat(0)
			}
			v = adjustRep(post[c], v, sqrtP)
			if f, ok := v.AsFloat(); ok {
				repVals[c] = append(repVals[c], f)
			}
		}
	}
	return repVals
}

// extensiveSlots flags the post-aggregate slots holding SUM/COUNT: a
// zero-weight resample of a group carries zero mass there, it is not
// "unknown".
func extensiveSlots(b *plan.Block) []bool {
	width := b.PostAggWidth()
	out := make([]bool, width)
	for c := len(b.GroupBy); c < width; c++ {
		name := b.Aggs[c-len(b.GroupBy)].Name
		out[c] = name == "SUM" || name == "COUNT"
	}
	return out
}

// makeSetRepFn builds the lazy per-key, per-trial membership evaluator
// for the current batch. A probed key costs its own bucket — point row
// included — never a pass over the block's whole uncertain set.
func (e *Engine) makeSetRepFn(r *blockRunner, scale float64) func(string) []bool {
	b := r.b
	sqrtP := e.tables[b.Input.Fact].sqrtP
	extensive := extensiveSlots(b)
	nKeys := len(b.GroupBy)
	n := 1 + e.opt.Trials
	var post, inv types.Row
	return func(key string) []bool {
		ev := r.eval()
		ev.loadKey(key, n)
		ev.finalize(scale, 0, n)
		// Point post row of the key, for the m-out-of-n adjustment.
		havePost := ev.visibleAtPoint()
		if havePost {
			post = ev.post(0, scale, post)
		}
		// adjust is the replica adjustment of post-aggregate column c: an
		// empty extensive slot carries zero mass, and deviations from the
		// point row shrink by √p.
		adjust := func(c int, v types.Value) types.Value {
			if v.IsNull() && extensive[c] {
				v = types.NewFloat(0)
			}
			if havePost {
				v = adjustRep(post[c], v, sqrtP)
			}
			return v
		}
		reps := make([]bool, e.opt.Trials)
		if b.Having == nil {
			for j := range reps {
				reps[j] = ev.evidence(1 + j)
			}
			return reps
		}
		if ev.having != nil {
			// HAVING over the trial lanes: adjust the slots in place, as
			// floats, and hand the adjusted keys to the row-only subtrees.
			inv = inv[:0]
			for c := 0; c < nKeys && c < len(ev.key); c++ {
				inv = append(inv, adjust(c, ev.key[c]))
			}
			ev.adjustSlots(post, havePost, extensive, sqrtP, n)
			ev.env.row = inv
			if t, ok := ev.having.tri(&ev.env, 1, n); ok {
				for j := range reps {
					reps[j] = ev.evidence(1+j) && t[1+j] == expr.TriTrue
				}
				return reps
			}
			ev.finalize(scale, 1, n) // undo the adjustment for the interpreter
		}
		ctxs := ev.ctxs.axis(n)
		var buf types.Row
		for j := range reps {
			if !ev.evidence(1 + j) {
				continue
			}
			buf = ev.post(1+j, scale, buf)
			for c := range buf {
				buf[c] = adjust(c, buf[c])
			}
			ctxs[1+j].Row = buf
			reps[j] = b.Having.Eval(ctxs[1+j]).Truthy()
		}
		return reps
	}
}

// buildRangeFromFloats is buildRange over already-extracted replica
// floats; trials is the configured trial count, against which replica
// evidence is judged sufficient.
func buildRangeFromFloats(point types.Value, reps []float64, epsSigma float64, trials int) paramRange {
	if len(reps) < minReplicaObs(trials) {
		return paramRange{status: rsUnknown}
	}
	vals := make([]types.Value, len(reps))
	for i, f := range reps {
		vals[i] = types.NewFloat(f)
	}
	return buildRange(point, vals, epsSigma)
}
