package core

import (
	"fluodb/internal/chaos"
	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/sqlparser"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// andOp aliases the AND operator for conjunct reassembly.
const andOp = sqlparser.OpAnd

// uncertainRow is a cached tuple whose classification may still flip.
// The joined row is its lineage within the block (§3.3): everything
// needed to lazily re-evaluate the uncertain predicate and the block's
// aggregate arguments.
type uncertainRow struct {
	row     types.Row
	weights []uint8
	repW    float64 // 0 when outside the bootstrap subsample, else 1/p
}

// blockRunner executes one lineage block online. Its embedded home
// stage (parallel.go) is the block's authoritative cross-batch state:
// single-part batches fold straight into it, worker stages merge into
// it at the barrier, and only the controller goroutine ever touches it.
type blockRunner struct {
	stage
	b   *plan.Block
	eng *Engine
	// idx is the runner's position in Engine.runners; worker contexts
	// index their per-runner stages by it (they must not hold runner
	// pointers between tasks, see pool.go).
	idx int

	// WHERE split into certain conjuncts (no uncertain placeholders;
	// evaluated exactly per tuple) and uncertain conjuncts (classified
	// through variation ranges).
	certainWhere   expr.Expr
	uncertainWhere expr.Expr

	// ev evaluates the block's current estimate — deterministic state
	// plus the cached uncertain set — for snapshots and bindings
	// (snapeval.go); created on first use.
	ev *snapEval
	// reclassBuf is the reusable per-row decision buffer of the parallel
	// reclassification pass (one tri per cached uncertain row).
	reclassBuf []uint8

	// colPl is the block's columnar-path eligibility plan (see
	// columnar.go), built once on the controller and shared read-only by
	// workers.
	colPl *colPlan

	// cltKinds classifies each aggregate for closed-form ranges;
	// allCLT reports whether every aggregate in the block is estimable,
	// in which case deterministic classification does not depend on
	// bootstrap-subsample evidence at all.
	cltKinds []cltKind
	allCLT   bool
}

func newBlockRunner(b *plan.Block, eng *Engine) (*blockRunner, error) {
	j, err := exec.NewJoiner(b, eng.cat)
	if err != nil {
		return nil, err
	}
	r := &blockRunner{b: b, eng: eng, stage: stage{joiner: j, tab: newOnlineTable(eng.opt.Trials)}}
	r.cltKinds = make([]cltKind, len(b.Aggs))
	r.allCLT = len(b.Aggs) > 0
	for i := range b.Aggs {
		r.cltKinds[i] = cltKindOf(&b.Aggs[i])
		if r.cltKinds[i] == cltNone {
			r.allCLT = false
		}
	}
	r.tab.configure(r.cltKinds)
	var certain, unc []expr.Expr
	for _, c := range expr.SplitConjuncts(b.Where) {
		if expr.HasParams(c) {
			unc = append(unc, c)
		} else {
			certain = append(certain, c)
		}
	}
	r.certainWhere = andExprs(certain)
	r.uncertainWhere = andExprs(unc)
	return r, nil
}

func andExprs(es []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &expr.Binary{Op: andOp, L: out, R: e}
		}
	}
	return out
}

// reset clears all online state (used by failure-recovery replay).
func (r *blockRunner) reset() {
	r.tab = newOnlineTable(r.eng.opt.Trials)
	r.tab.configure(r.cltKinds)
	// The replacement table must keep the columnar plan's bank-stream
	// aliases: the replayed prefix folds through the same deduplicated
	// writes, so unaliased reads would see the unwritten twin cells.
	if r.colPl != nil && r.colPl.ok {
		r.tab.bankOfW = r.colPl.aliasW
		r.tab.bankOfV = r.colPl.aliasV
	}
	r.uncertain = nil
	r.arena.release()
	r.invalidateEval()
}

// reclassify re-examines the cached uncertain set against the current
// variation ranges: tuples that became deterministic are folded (or
// dropped) permanently; the rest stay cached. This is the delta
// maintenance step of §3.2 — only U_{i-1} and the new mini-batch are
// touched, never the full prefix.
func (r *blockRunner) reclassify(te *triEnv) (folded, dropped int) {
	if len(r.uncertain) == 0 {
		return 0, 0
	}
	// For large uncertain sets the tri-state decisions are computed on
	// the worker pool; the fold/drop applications below then run
	// serially in original cache order, so the result is bit-identical
	// to the fully serial scan.
	decisions := r.reclassifyDecisions()
	kept := r.uncertain[:0]
	for i, u := range r.uncertain {
		d := triUnknown
		if decisions != nil {
			d = tri(decisions[i])
		} else {
			d = te.evalTri(r.uncertainWhere, u.row)
		}
		switch d {
		case triTrue:
			te.pointCtx.Row = u.row
			r.tab.fold(r.b, te.pointCtx, u.weights, u.repW)
			r.eng.metrics.DeterministicFolds++
			folded++
		case triFalse:
			dropped++
		default:
			kept = append(kept, u)
		}
	}
	// Zero the tail so dropped rows are collectable.
	for i := len(kept); i < len(r.uncertain); i++ {
		r.uncertain[i] = uncertainRow{}
	}
	r.uncertain = kept
	if len(r.uncertain) == 0 {
		// Nothing references arena-held weight copies anymore: recycle
		// the chunks.
		r.arena.release()
	}
	r.invalidateEval()
	return folded, dropped
}

// evictOldest force-resolves the n oldest cached uncertain tuples by
// their current point-estimate truth: tuples whose uncertain predicate
// holds at the point bindings are folded (with their retained bootstrap
// weights), the rest dropped. This trades statistical caution for
// bounded memory — an evicted tuple can no longer flip when ranges
// tighten, though a contradiction surfacing later still triggers the
// usual failure-recovery replay.
func (r *blockRunner) evictOldest(n int, te *triEnv) (folded, dropped int) {
	if n > len(r.uncertain) {
		n = len(r.uncertain)
	}
	for i := 0; i < n; i++ {
		u := r.uncertain[i]
		te.pointCtx.Row = u.row
		if r.uncertainWhere == nil || r.uncertainWhere.Eval(te.pointCtx).Truthy() {
			r.tab.fold(r.b, te.pointCtx, u.weights, u.repW)
			folded++
		} else {
			dropped++
		}
	}
	kept := copy(r.uncertain, r.uncertain[n:])
	for i := kept; i < len(r.uncertain); i++ {
		r.uncertain[i] = uncertainRow{}
	}
	r.uncertain = r.uncertain[:kept]
	if len(r.uncertain) == 0 {
		r.arena.release()
	}
	r.invalidateEval()
	return folded, dropped
}

// reclassifyDecisions evaluates the uncertain predicate over the cached
// uncertain set on the worker pool, one tri decision per row, or nil
// when the set is too small or parallelism is off — the caller then
// evaluates inline. The split is the batch feed's; decisions land in a
// fixed per-row buffer, so worker completion order cannot reorder them.
// Decisions only fill a scratch buffer — no runner state is touched —
// so a failed part is simply re-evaluated on this goroutine.
func (r *blockRunner) reclassifyDecisions() []uint8 {
	e := r.eng
	n := len(r.uncertain)
	workers := storage.ClampParts(n, e.opt.Parallelism, e.opt.ParallelThreshold)
	if workers == 1 {
		return nil
	}
	pool := e.ensurePool()
	if pool == nil {
		return nil
	}
	if cap(r.reclassBuf) < n {
		r.reclassBuf = make([]uint8, n)
	}
	buf := r.reclassBuf[:n]
	parts := storage.SliceRanges(n, workers)
	decide := func(wc *workerCtx, w int) {
		wte := wc.refresh(e)
		for i := parts[w].Lo; i < parts[w].Hi; i++ {
			buf[i] = uint8(wte.evalTri(r.uncertainWhere, r.uncertain[i].row))
		}
	}
	inj := e.opt.Chaos
	_, err := pool.scatter(workers, e.opt.Seed, uint64(e.batch), func(wc *workerCtx, w int) error {
		switch inj.ReclassFault(r.idx, e.batch, wc.id) {
		case chaos.KindPanic:
			e.traceFault("panic", "reclassify", wc.id, "injected reclassification panic")
			panic(&chaosFault{kind: chaos.KindPanic})
		case chaos.KindStraggler:
			e.traceFault("straggler", "reclassify", wc.id, "injected reclassification straggler")
			inj.Sleep()
		}
		sl := e.workerSlab(wc.id)
		tsp := sl.Begin("reclass-task", e.spanReclass, e.spanBatchNo, r.b.ID)
		decide(wc, w)
		sl.End(tsp)
		return nil
	}, func(w, attempt int, cause error) error {
		if _, ok := cause.(*workerPanic); ok && attempt == 1 {
			e.trace.Emit(Event{Kind: EvWorkerPanic, Key: "reclassify", Worker: w, Note: cause.Error()})
		}
		decide(pool.ctxs[w], w)
		return nil
	})
	if err != nil {
		return nil
	}
	return buf
}

// feedTupleTo pushes one fact tuple (with its per-trial bootstrap
// multiplicities and subsample weight) through join → certain filter →
// classification into st. weights may live in a reusable scratch
// buffer: tuples that stay uncertain copy them into the stage's arena.
func (r *blockRunner) feedTupleTo(fact types.Row, weights []uint8, repW float64, st *stage) {
	te, tab := st.te, st.tab
	for _, row := range st.joiner.Join(fact) {
		te.pointCtx.Row = row
		if r.certainWhere != nil && !r.certainWhere.Eval(te.pointCtx).Truthy() {
			continue
		}
		if r.uncertainWhere == nil {
			tab.fold(r.b, te.pointCtx, weights, repW)
			st.folds++
			continue
		}
		switch te.evalTri(r.uncertainWhere, row) {
		case triTrue:
			te.pointCtx.Row = row
			tab.fold(r.b, te.pointCtx, weights, repW)
			st.folds++
		case triFalse:
			// dropped forever
		default:
			st.cache(row, weights, repW)
		}
	}
}
