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

// Options configure a G-OLA execution: the controls a user sets. Test
// seams are not among them; they ride on an unexported field set only
// through WithSeams.
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
	// Parallelism is the number of persistent pool workers folding each
	// mini-batch (FluoDB is a parallel online execution framework, §1):
	// the batch splits into contiguous parts, each folded into a
	// worker's private stage and merged back in worker order
	// (parallel.go). 0 = GOMAXPROCS; 1 = serial. Results are identical
	// up to group ordering; full run-to-run determinism requires a fixed
	// value.
	Parallelism int
	// Seed makes the run deterministic.
	Seed uint64
	// Profile turns on the engine's observability surfaces: a bounded
	// ring of G-OLA events (Engine.Events: range failures, commits,
	// uncertain flips, recomputes) and a hierarchical span timeline
	// (Engine.Spans: query → mini-batch → phase (reclassify, feed,
	// ranges) → per-worker feed task, plus serial retries and
	// checkpoint/resume; DESIGN.md §14). The ring is the one event
	// store: the Chrome export (Tracer.WriteChromeTrace) attaches its
	// events to the timeline as instants. The per-phase profile
	// (Metrics.Phases) is collected either way, and the traced run
	// executes exactly the kernels the untraced run does.
	Profile bool
	// MaxMemoryBytes is a soft budget on the bytes the query pins across
	// its accounted pools (group tables, uncertain cache, columnar
	// scratch, segment cache; see Snapshot.Resources). 0 =
	// unbudgeted. When a mini-batch commits over budget, a deterministic
	// degradation ladder engages — drop the columnar segment cache, then
	// evict the oldest cached uncertain tuples, force-resolving them by
	// their point-estimate truth (ledger.go). Rung 1 falls back to a
	// bit-identical path; rung 2 marks snapshots Degraded and trades
	// deterministic-set precision, never the answer: a later
	// contradiction still triggers the usual failure-recovery replay.
	// Like Parallelism, the budget is operational: it may differ between
	// a checkpoint and its resume.
	MaxMemoryBytes int64
	// seams holds the test seams; only WithSeams sets them.
	seams Seams
}

// partRows is the minimum part size (rows) worth a pool worker:
// mini-batches below 2·partRows fold in place, and the part count is
// clamped to rows/partRows. Seams.PartRows overrides it.
const partRows = 2048

// Seams are the engine's test seams. None of them changes an answer;
// each lets a test or the chaos soak reach a path the defaults do not.
type Seams struct {
	// Chaos, when non-nil, injects deterministic faults (worker panics,
	// stragglers, worker-stage corruption, segment-cache drops) at the
	// runtime's instrumented sites.
	Chaos *chaos.Injector
	// RowPath disables the columnar fold path (columnar.go), forcing the
	// row-oriented per-tuple loop even for eligible blocks. The two paths
	// are bit-identical by construction; the bit-identity tests and the
	// chaos soak's fault-free reference runs set it to compare the two.
	RowPath bool
	// PartRows overrides partRows, so that small fixtures engage pool
	// workers. 0 keeps partRows.
	PartRows int
}

// WithSeams returns opt with its test seams set to s. It is a function,
// not a method, so the public alias of Options does not carry it.
func WithSeams(opt Options, s Seams) Options {
	opt.seams = s
	return opt
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
	if o.seams.PartRows < 0 {
		return bad("PartRows", o.seams.PartRows)
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
	if o.Parallelism <= 0 {
		o.Parallelism = defaultParallelism()
	}
	if o.seams.PartRows <= 0 {
		o.seams.PartRows = partRows
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
	// by rung 2 of the MaxMemoryBytes ladder; nonzero marks snapshots
	// Degraded.
	UncertainEvictions int64
	// Resource-ledger headline numbers (ledger.go): latest / high-water
	// total byte residency across the accounted pools, the highest
	// degradation rung engaged by MaxMemoryBytes (0 = none), and GC
	// pause time / cycles attributed to this query's mini-batches.
	MemBytes     int64
	MemPeakBytes int64
	DegradeRung  int
	GCPauseNS    int64
	GCCycles     int64
	// GCCPUNS is the runtime's GC CPU time over this query's mini-batches
	// (process-wide, so concurrent queries share it). Unlike GCPauseNS
	// and GCCycles it is not checkpointed: a resumed query counts from
	// its resume.
	GCCPUNS int64
	// Phases is the cumulative per-phase time breakdown across the run;
	// PhasePerBatch holds one breakdown per processed batch (aligned
	// with BatchDurations). Phases are collected with or without
	// Options.Profile.
	Phases        PhaseTimes
	PhasePerBatch []PhaseTimes
	// Blocks profiles each lineage block: its state and cumulative cost
	// (dependency order, root last).
	Blocks []BlockStat
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
	sampleCut uint64
	sqrtP     float64
	// wlut maps a Poisson(1) multiplicity (≤ 7; 16 slots so the masked
	// index elides bounds checks) to its pre-scaled weight k·(1/p).
	wlut [16]float64
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
	// triNodes lowers every expression node the engine classifies to
	// its interval-evaluation facts (plans are immutable); see
	// warmTriNodes.
	triNodes map[expr.Expr]*triNode
	// te is the controller's persistent classification environment
	// (triEnv()).
	te *triEnv
	// evalBudget caps the per-snapshot error-estimation work
	// (snapshotEvalBudget; tests lower it to exercise thinning).
	evalBudget int
	// Range-maintenance scratch, kept across groups and batches so a
	// warm updateBinding allocates nothing: rowRanges for CLT slot
	// ranges, rangeBuf for replica floats, postBuf for a group's post
	// row.
	rowRanges []paramRange
	rangeBuf  []float64
	postBuf   types.Row
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
	// slab; the spanQuery/spanTop/spanBatch/spanFeed fields
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
	ledger      resource.Ledger
	gcSampler   *resource.Sampler
	gcPrev      resource.GCStats
	degradeRung int
	lastUsage   ResourceUsage
	ckBytes     int64
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

// newTriEnv builds a classification environment over the engine's
// lowered expression nodes. They are fully built at construction
// (warmTriNodes) and read-only afterwards, so worker goroutines may
// share them; the environment captures the map, not the engine (worker
// contexts must not keep an abandoned engine reachable, see pool.go).
func (e *Engine) newTriEnv() *triEnv {
	te := e.bind.newTriEnv()
	te.nodes = e.triNodes
	return te
}

// warmTriNodes lowers every expression the engine classifies or bounds,
// so the node map is read-only during (possibly parallel) execution.
func (e *Engine) warmTriNodes() {
	add := func(x expr.Expr) {
		if x != nil {
			newTriNode(x).register(e.triNodes)
		}
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
		triNodes: map[expr.Expr]*triNode{}, evalBudget: snapshotEvalBudget}
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
		invP := 1 / ts.sampleP
		for k := range ts.wlut {
			ts.wlut[k] = float64(k) * invP
		}
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
	e.warmTriNodes()
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
			e.bind.groupFill[r.b.ParamIdx] = func(id int, dst []types.Value) { e.fillGroupReps(r, id, dst) }
		case plan.SetBlock:
			e.bind.setBlocks[r.b.ParamIdx] = r.b.ID
			e.bind.setFill[r.b.ParamIdx] = func(id int, dst []bool) { e.fillSetReps(r, id, dst) }
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
	m.Blocks = e.blockStats()
	return m
}

// Options returns the effective (defaulted) options.
func (e *Engine) Options() Options { return e.opt }

// weights derives global row gi's first n bootstrap weights — its
// Poisson(1) multiplicities scaled by the fact stream's 1/p — into dst
// (reallocated only when too small), or returns nil when the row is
// outside the bootstrap subsample. The derivation is a pure function of
// (seed, table, row index, trial), so replay and every reader of a
// cached row regenerate identical weights, and the first n lanes of a
// full derivation are the n-lane derivation.
func (e *Engine) weights(dst []float64, ts *tableStream, gi, n int) []float64 {
	if !e.sampled(ts, gi) {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	key := ts.weightKey(gi, e.opt.Trials)
	lut := &ts.wlut
	j := 0
	// Whole lane blocks store directly: a copy here compiles to a
	// memmove call per block.
	for ; j+4 <= n; j += 4 {
		k0, k1, k2, k3 := bootstrap.PoissonLanes(key)
		d := dst[j : j+4 : j+4]
		d[0], d[1], d[2], d[3] = lut[k0&15], lut[k1&15], lut[k2&15], lut[k3&15]
		key++
	}
	if j < n {
		k0, k1, k2, k3 := bootstrap.PoissonLanes(key)
		x := [4]float64{lut[k0&15], lut[k1&15], lut[k2&15], lut[k3&15]}
		copy(dst[j:], x[:])
	}
	return dst
}

// weightKey is row rowIdx's first weight hash key: trial j of the row
// is lane j&3 of bootstrap.PoissonLanes(weightKey + j>>2), so a row
// spends ⌈trials/4⌉ consecutive keys.
func (ts *tableStream) weightKey(rowIdx, trials int) uint64 {
	return ts.weightBase + uint64(rowIdx)*uint64((trials+3)/4)
}

// sampled reports whether a tuple is in the bootstrap subsample
// (deterministic in the seed, so replay regenerates it).
func (e *Engine) sampled(ts *tableStream, rowIdx int) bool {
	if ts.sampleP >= 1 {
		return true
	}
	return bootstrap.Mix64(ts.sampleBase+uint64(rowIdx)) <= ts.sampleCut
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
		folded, dropped := r.reclassify(te)
		r.acc.ns[phaseUncertain] += e.phaseEnd(rsp, t0)
		e.conv.stepOut += int64(folded + dropped)
		if e.trace != nil && (folded != 0 || dropped != 0) {
			e.trace.Emit(Event{Kind: EvFlip, Block: r.b.ID,
				Folded: folded, Dropped: dropped, Kept: len(r.uncertain)})
		}
		ts := e.tables[r.b.Input.Fact]
		if bi < len(ts.batches) {
			if r.colPl != nil && r.colPl.ok && r.colPl.ct != nil &&
				e.opt.seams.Chaos.SegSealDrop(r.b.Input.Fact, bi) {
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
			r.beginMoments()
			err := r.feedBatchParallel(rows, ts.starts[bi], te)
			r.drawMoments(bi)
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
	// Enforce the soft memory budget before the batch commits: the
	// evaluation point is deterministic (same state → same ladder rungs,
	// same evictions), so failure-recovery replay re-degrades
	// identically (ledger.go).
	e.enforceMemoryBudget()
	return true, nil
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

// paramRangeFor derives a parameter block's variation range for one
// group: CLT slot ranges propagated through the select expression (sel,
// its lowering) by interval arithmetic where possible, bootstrap
// replicas otherwise. te must have been built by e.triEnv().
func (e *Engine) paramRangeFor(te *triEnv, r *blockRunner, sel *triNode, en *onlineEntry, post types.Row, point types.Value, repsFn func() []types.Value, scale float64, boost float64) paramRange {
	ts := e.tables[r.b.Input.Fact]
	f := 0.0
	if ts.total > 0 {
		f = float64(ts.seen) / float64(ts.total)
	}
	z := (cltZBase + e.opt.EpsilonSigma) * boost
	if en != nil && en.clt != nil {
		e.rowRanges = e.cltRowRanges(r, en, post, scale, f, z, e.rowRanges)
		te.rowRanges = e.rowRanges
		pr := te.nodeRange(sel, post)
		te.rowRanges = nil
		if pr.status == rsOK || pr.status == rsNull {
			return pr
		}
	}
	e.rangeBuf = e.rangeBuf[:0]
	for _, v := range repsFn() {
		if f, ok := v.AsFloat(); ok {
			e.rangeBuf = append(e.rangeBuf, f)
		}
	}
	return replicaRange(point, e.rangeBuf, e.opt.Trials, e.opt.EpsilonSigma*boost)
}

func (e *Engine) updateScalarBinding(r *blockRunner, scale float64, complete bool) bool {
	b := r.b
	ev := r.eval()
	trials := e.opt.Trials
	n := 1 + trials
	var post types.Row
	ev.eachVisible(n, func() {
		ev.finalize(scale)
		post = ev.post(0, nil)
	})
	pctx := ev.ctxs.point()
	pctx.Row = post
	point := b.Select[0].Eval(pctx)
	reps := make([]types.Value, trials)
	ev.outputReps(0, post, point, reps, nil)
	var rng paramRange
	if complete {
		rng = pointParam(point)
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
		rng = e.paramRangeFor(te, r, te.node(b.Select[0]), baseEn, post, point,
			func() []types.Value { return reps }, scale, boost)
	}
	return e.bind.updateScalar(b.ParamIdx, point, reps, rng)
}

// updateGroupBinding republishes a correlated block's estimate and
// range for every visible group, writing its binding by group id.
func (e *Engine) updateGroupBinding(r *blockRunner, scale float64, complete bool) bool {
	b := r.b
	ev := r.eval()
	pctx := ev.ctxs.point()
	g := e.bind.groups[b.ParamIdx]
	boost := g.epsBoost
	// Replica vectors are provided lazily (fillGroupReps): only the
	// groups probed by snapshot error estimation (or by a bootstrap range
	// fallback) pay for per-trial evaluation.
	g.begin(ev, r.uncertainWhere != nil)
	g.scale = scale
	te := e.triEnv()
	sel := te.node(b.Select[0])
	failed := false
	ev.eachVisible(1, func() {
		en := ev.en
		id, key, h := g.keys.visit(ev)
		ev.finalize(scale)
		e.postBuf = ev.post(0, e.postBuf)
		post := e.postBuf
		pctx.Row = post
		point := b.Select[0].Eval(pctx)
		commit := r.supported(en)
		var rng paramRange
		switch {
		case complete:
			rng = pointParam(point)
			commit = true // an exact value always classifies
		case commit:
			// A bootstrap-range fallback reads the group's replica vector
			// (fillGroupReps), which shrinks about the published point:
			// publish this point first, or the vector — cached for the
			// epoch — shrinks about the previous publication's.
			g.publish(id, point, paramRange{status: rsUnknown})
			rng = e.paramRangeFor(te, r, sel, en, post, point,
				func() []types.Value { return e.bind.groupReps(b.ParamIdx, id) }, scale, boost)
		}
		if e.bind.updateGroupEntry(b.ParamIdx, id, key, h, point, rng, commit) {
			failed = true
		}
	})
	if failed {
		// One widening per failing batch scan: per-key doubling would
		// overshoot the slack exponentially when many marginal groups
		// fail together.
		g.epsBoost *= 2
	}
	return failed
}

// fillGroupReps evaluates group id's replica vector into dst for the
// current publication, by its key: the group's bucket alone is
// evaluated, and the output reader shrinks its trial values about the
// published point. A probed id (no published group) has a NULL point.
func (e *Engine) fillGroupReps(r *blockRunner, id int, dst []types.Value) {
	g := e.bind.groups[r.b.ParamIdx]
	ev := r.eval()
	ev.loadKey(g.keys.keyOf(id), g.scale)
	ev.ptRow = ev.post(0, ev.ptRow)
	ev.outputReps(0, ev.ptRow, g.pointOf(id), dst, nil)
}

// updateSetBinding republishes a membership block's point membership
// and its tri-state classification for every visible group, by id.
func (e *Engine) updateSetBinding(r *blockRunner, scale float64, complete bool) bool {
	b := r.b
	ev := r.eval()
	pctx := ev.ctxs.point()
	te := e.triEnv()
	sb := e.bind.sets[b.ParamIdx]
	// Per-trial membership is provided lazily (fillSetReps): only the
	// keys probed by snapshot error estimation pay for per-trial
	// evaluation.
	sb.begin(ev, r.uncertainWhere != nil)
	sb.scale = scale
	var having *triNode
	if b.Having != nil {
		having = te.node(b.Having)
	}
	fracSeen := 0.0
	if ts := e.tables[b.Input.Fact]; ts.total > 0 {
		fracSeen = float64(ts.seen) / float64(ts.total)
	}
	failed := false
	ev.eachVisible(1, func() {
		en := ev.en
		id, key, h := sb.keys.visit(ev)
		ev.finalize(scale)
		e.postBuf = ev.post(0, e.postBuf)
		post := e.postBuf
		// Point membership.
		pctx.Row = post
		member := b.Having == nil || b.Having.Eval(pctx).Truthy()
		// No HAVING: membership is monotone (key present → member) once a
		// deterministically folded tuple backs the key.
		t := triTrue
		if en == nil {
			t = triUnknown
		}
		// Tri-state membership via row ranges on the post-agg layout:
		// CLT slot ranges, the replica range for the slots they leave
		// unknown. Groups below the minimum support never classify
		// deterministically; once the table is fully consumed the point
		// answer is exact.
		if b.Having != nil {
			switch {
			case complete:
				t = triFromBool(member)
			case !r.supported(en):
				t = triUnknown
			default:
				boost := sb.epsBoost
				z := (cltZBase + e.opt.EpsilonSigma) * boost
				e.rowRanges = e.cltRowRanges(r, en, post, scale, fracSeen, z, e.rowRanges)
				var repVals [][]float64 // evaluated once, on the first unknown slot
				for c := len(b.GroupBy); c < len(post); c++ {
					if e.rowRanges[c].status != rsUnknown {
						continue
					}
					if repVals == nil {
						repVals = e.setRepPostValues(r, id, scale)
					}
					e.rowRanges[c] = replicaRange(post[c], repVals[c], e.opt.Trials, e.opt.EpsilonSigma*boost)
				}
				te.rowRanges = e.rowRanges
				t = te.nodeTri(having, post, false)
				te.rowRanges = nil
			}
		}
		if e.bind.updateSetEntry(b.ParamIdx, id, key, h, member, t) {
			failed = true
		}
	})
	if failed {
		sb.epsBoost *= 2
	}
	return failed
}

// setRepPostValues evaluates a set-block group's (published id)
// replica floats through the slot reader, per post-aggregate column
// over the trials with evidence (the bootstrap fallback for non-CLT
// slots; key columns stay empty), into the evaluator's scratch: valid
// until the next call.
func (e *Engine) setRepPostValues(r *blockRunner, id int, scale float64) [][]float64 {
	ev := r.eval()
	ev.loadKey(e.bind.sets[r.b.ParamIdx].keys.keyOf(id), scale)
	vals := ev.slotVals
	for c := range vals {
		vals[c] = vals[c][:0]
	}
	for t, live := range ev.slotReps() {
		if !live {
			continue
		}
		row := ev.slotRow(1 + t)
		for c := len(r.b.GroupBy); c < len(row); c++ {
			if f, ok := row[c].AsFloat(); ok {
				vals[c] = append(vals[c], f)
			}
		}
	}
	return vals
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

// fillSetReps evaluates key id's per-trial membership into reps (zeroed)
// for the current publication, by its key, through the slot reader. A
// probed key costs its own bucket — point row included — never a pass
// over the block's whole uncertain set.
func (e *Engine) fillSetReps(r *blockRunner, id int, reps []bool) {
	b := r.b
	sb := e.bind.sets[b.ParamIdx]
	ev := r.eval()
	ev.loadKey(sb.keys.keyOf(id), sb.scale)
	live, n := ev.slotReps(), ev.n
	if b.Having == nil {
		copy(reps, live)
		return
	}
	// HAVING over the adjusted trial lanes when lowered, else per trial
	// through the interpreter.
	if ev.having != nil {
		if t, ok := ev.having.tri(&ev.env, 1, n); ok {
			for j := range reps {
				reps[j] = live[j] && t[1+j] == expr.TriTrue
			}
			return
		}
	}
	ctxs := ev.ctxs.axis(n)
	for j := range reps {
		if live[j] {
			ctxs[1+j].Row = ev.slotRow(1 + j)
			reps[j] = b.Having.Eval(ctxs[1+j]).Truthy()
		}
	}
}
