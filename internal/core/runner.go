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
// aggregate arguments. ord is the fact row's global ordinal, where the
// tri-state kernel re-examines it in the columnar encoding; a stage's
// cache is non-decreasing in ord (rows are appended in row order,
// filtered stably and merged in part order). A row's replica weight is
// not stored: it is the fact stream's 1/p when weights are held (the
// row is in the bootstrap subsample) and 0 otherwise (repW).
type uncertainRow struct {
	row     types.Row
	weights []uint8
	ord     int
}

// repW is u's replica weight: the block's fact-stream 1/p inside the
// bootstrap subsample, 0 outside it.
func (r *blockRunner) repW(u *uncertainRow) float64 {
	if u.weights == nil {
		return 0
	}
	return r.invP
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
	// invP is the fact stream's 1/p, every subsampled row's replica
	// weight (repW).
	invP float64
}

func newBlockRunner(b *plan.Block, eng *Engine) (*blockRunner, error) {
	j, err := exec.NewJoiner(b, eng.cat)
	if err != nil {
		return nil, err
	}
	r := &blockRunner{b: b, eng: eng, stage: stage{joiner: j, tab: newOnlineTable(eng.opt.Trials)},
		invP: eng.tables[b.Input.Fact].invP}
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
	// Large sets decide on the worker pool first; otherwise the kernel
	// decides one segment run of the cache ahead of the loop (at each
	// row's ordinal), or the interpreter decides each row. The fold/drop
	// applications run serially in original cache order either way, so
	// the result is bit-identical to the fully serial scan.
	decisions := r.reclassifyDecisions()
	var k *expr.TriKernel
	if decisions == nil {
		k = r.reclassKernel(&r.stage, te)
	}
	run, runLo, runHi := r.cs.triU, 0, 0
	kept := r.uncertain[:0]
	for i := range r.uncertain {
		u := &r.uncertain[i]
		var d tri
		switch {
		case decisions != nil:
			d = tri(decisions[i])
		case k != nil:
			if i == runHi {
				runLo, runHi = i, r.decideRun(k, &r.stage, run, i, len(r.uncertain))
			}
			d = tri(run[i-runLo])
		default:
			d = te.evalTri(r.uncertainWhere, u.row)
		}
		switch d {
		case triTrue:
			te.pointCtx.Row = u.row
			r.tab.fold(r.b, te.pointCtx, u.weights, r.repW(u))
			r.eng.metrics.DeterministicFolds++
			folded++
		case triFalse:
			dropped++
		default:
			kept = append(kept, *u)
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
		u := &r.uncertain[i]
		te.pointCtx.Row = u.row
		if r.uncertainWhere == nil || r.uncertainWhere.Eval(te.pointCtx).Truthy() {
			r.tab.fold(r.b, te.pointCtx, u.weights, r.repW(u))
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

// reclassifyDecisions decides the cached uncertain set on the worker
// pool, one tri per row, or returns nil when the set is too small or
// parallelism is off — the caller then decides inline. The split is the
// batch feed's, and each part decides on its worker stage's kernel (or
// the interpreter where the kernel refuses). Decisions land in a fixed
// per-row buffer, so worker completion order cannot reorder them.
// Decisions only fill a scratch buffer and kernel caches — no runner
// state is touched — so a failed part is simply re-evaluated on this
// goroutine, on a fresh stage.
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
		lo, hi := parts[w].Lo, parts[w].Hi
		if st := wc.stage(r); r.reclassKernel(st, wte) != nil {
			for i := lo; i < hi; {
				i = r.decideRun(st.cs.triK, st, buf[i:], i, hi)
			}
			return
		}
		for i := lo; i < hi; i++ {
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
		// The failed part may have stopped inside its kernel's key memo:
		// redo it on a fresh stage (worker stages hold no rows between
		// batches, so nothing else is lost).
		pool.ctxs[w].quarantine(r)
		decide(pool.ctxs[w], w)
		return nil
	})
	if err != nil {
		return nil
	}
	return buf
}

// reclassKernel returns st's tri-state kernel, bound to te for a new
// epoch, to re-examine the cache at its ordinals — or nil when the
// cache goes through the interpreter: the block has no columnar plan
// (or lost it to the memory ladder), the predicate refused the kernel,
// or the encoding does not cover the cached ordinals.
func (r *blockRunner) reclassKernel(st *stage, te *triEnv) *expr.TriKernel {
	p := r.colPl
	if p == nil || !p.ok || p.ct == nil || te.rowRanges != nil ||
		r.uncertain[len(r.uncertain)-1].ord >= p.ct.NumRows() {
		return nil
	}
	r.ensureKernels(st, p.ct)
	k := st.cs.triK
	if k == nil {
		return nil
	}
	if cap(st.cs.triU) < p.ct.SegSize {
		st.cs.triU = make([]uint8, p.ct.SegSize)
	}
	st.cs.triU = st.cs.triU[:p.ct.SegSize]
	st.te = te
	bindTri(k, te)
	return k
}

// decideRun classifies the cached rows from i on that share row i's
// segment — at most a segment's worth, none past hi — into out[0:], and
// returns where the run ends. The cache is ordered by ordinal, so a run
// is one EvalRows call over the segment's rows.
func (r *blockRunner) decideRun(k *expr.TriKernel, st *stage, out []uint8, i, hi int) int {
	ct := r.colPl.ct
	seg, _ := ct.Segment(r.uncertain[i].ord)
	rows := st.cs.selU[:0]
	j := i
	for ; j < hi && len(rows) < ct.SegSize; j++ {
		o := r.uncertain[j].ord - seg.Base
		if o < 0 || o >= seg.N {
			break
		}
		rows = append(rows, int32(o))
	}
	k.EvalRows(out, seg, rows)
	st.cs.selU = rows
	st.cs.reclassified += int64(j - i)
	return j
}

// feedTupleTo pushes one fact tuple (global row ord, with its per-trial
// bootstrap multiplicities and subsample weight) through join → certain filter →
// classification into st. weights may live in a reusable scratch
// buffer: tuples that stay uncertain copy them into the stage's arena.
func (r *blockRunner) feedTupleTo(fact types.Row, weights []uint8, repW float64, ord int, st *stage) {
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
			st.cache(row, weights, ord)
		}
	}
}
