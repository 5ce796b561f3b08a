package core

import (
	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// andOp aliases the AND operator for conjunct reassembly.
const andOp = sqlparser.OpAnd

// uncertainRow is a cached tuple whose classification may still flip.
// The joined row is its lineage within the block (§3.3): everything
// needed to lazily re-evaluate the uncertain predicate and the block's
// aggregate arguments. ord is the fact row's global ordinal, where the
// tri-state kernel re-examines it in the columnar encoding and from
// which every reader regenerates its bootstrap weights (Engine.weights);
// a stage's cache is non-decreasing in ord (rows are appended in row
// order, filtered stably and merged in part order).
type uncertainRow struct {
	row types.Row
	ord int
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
	// ts is the block's fact stream, whose row ordinals key the
	// bootstrap weights.
	ts *tableStream
}

func newBlockRunner(b *plan.Block, eng *Engine) (*blockRunner, error) {
	j, err := exec.NewJoiner(b, eng.cat)
	if err != nil {
		return nil, err
	}
	r := &blockRunner{b: b, eng: eng, stage: stage{joiner: j, tab: newOnlineTable(eng.opt.Trials)},
		ts: eng.tables[b.Input.Fact]}
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
	r.invalidateEval()
}

// supported reports whether group entry en may commit deterministic
// decisions of a correlated or membership block: at least
// MinGroupSupport deterministically folded tuples (cached uncertain rows
// excluded) and, unless every aggregate has a closed-form range, as many
// inside the bootstrap subsample, so its replicas carry dispersion.
func (r *blockRunner) supported(en *onlineEntry) bool {
	m := r.eng.opt.MinGroupSupport
	return en != nil && en.n >= m && (r.allCLT || en.ns >= m)
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
	// The kernel decides one segment run of the cache ahead of the loop
	// (at each row's ordinal), or the interpreter decides each row; the
	// fold/drop applications run in cache order.
	k := r.reclassKernel(te)
	run, runLo, runHi := r.cs.triU, 0, 0
	kept := r.uncertain[:0]
	for i := range r.uncertain {
		u := &r.uncertain[i]
		var d tri
		if k != nil {
			if i == runHi {
				runLo, runHi = i, r.decideRun(k, run, i, len(r.uncertain))
				r.cs.reclassified += int64(runHi - runLo)
			}
			d = tri(run[i-runLo])
		} else {
			d = te.evalTri(r.uncertainWhere, u.row)
		}
		switch d {
		case triTrue:
			te.pointCtx.Row = u.row
			r.tab.fold(r.b, te.pointCtx, r.rowWeights(&r.stage, u.ord))
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
	r.invalidateEval()
	return folded, dropped
}

// evictOldest force-resolves the n oldest cached uncertain tuples by
// their current point-estimate truth: tuples whose uncertain predicate
// holds at the point bindings are folded (with their regenerated
// bootstrap weights), the rest dropped. This trades statistical caution
// for bounded memory — an evicted tuple can no longer flip when ranges
// tighten, though a contradiction surfacing later still triggers the
// usual failure-recovery replay.
func (r *blockRunner) evictOldest(n int, te *triEnv) (folded, dropped int) {
	if n > len(r.uncertain) {
		n = len(r.uncertain)
	}
	for i := 0; i < n; i++ {
		u := &r.uncertain[i]
		te.pointCtx.Row = u.row
		if r.uncertainWhere.Eval(te.pointCtx).Truthy() {
			r.tab.fold(r.b, te.pointCtx, r.rowWeights(&r.stage, u.ord))
			folded++
		} else {
			dropped++
		}
	}
	// Move the kept rows to a backing array n rows shorter and release
	// the old one: the ledger charges the cache by capacity, and rung 2
	// sizes its eviction in rows, so the charge must fall with them.
	kept := make([]uncertainRow, len(r.uncertain)-n, cap(r.uncertain)-n)
	copy(kept, r.uncertain[n:])
	r.uncertain = kept
	r.invalidateEval()
	return folded, dropped
}

// reclassKernel returns the home stage's tri-state kernel, bound to te
// for a new epoch, to decide the non-empty cached set at its ordinals
// (decideRun), with run scratch sized — or nil when the cache goes
// through the interpreter: te carries set-block row ranges the kernel
// does not model, the block has no columnar plan (or lost it to the
// memory ladder), the predicate refused the kernel, or the encoding does
// not cover the cached ordinals. te is a classification environment for
// reclassify and the point environment for the snapshot point pass
// (snapEval.bucket); the kernel's keyed slots resolve through whichever
// the stage holds (r.te).
func (r *blockRunner) reclassKernel(te *triEnv) *expr.TriKernel {
	p := r.colPl
	if te.rowRanges != nil || p == nil || !p.ok || p.ct == nil ||
		r.uncertain[len(r.uncertain)-1].ord >= p.ct.NumRows() {
		return nil
	}
	r.ensureKernels(&r.stage, p.ct)
	k := r.cs.triK
	if k == nil {
		return nil
	}
	if cap(r.cs.triU) < p.ct.SegSize {
		r.cs.triU = make([]uint8, p.ct.SegSize)
	}
	r.cs.triU = r.cs.triU[:p.ct.SegSize]
	r.te = te
	bindTri(k, te)
	return k
}

// decideRun classifies the cached rows from i on that share row i's
// segment — at most a segment's worth, none past hi — into out[0:], and
// returns where the run ends. The cache is ordered by ordinal, so a run
// is one EvalRows call over the segment's rows.
func (r *blockRunner) decideRun(k *expr.TriKernel, out []uint8, i, hi int) int {
	ct := r.colPl.ct
	seg, _ := ct.Segment(r.uncertain[i].ord)
	rows := r.cs.selU[:0]
	j := i
	for ; j < hi && len(rows) < ct.SegSize; j++ {
		o := r.uncertain[j].ord - seg.Base
		if o < 0 || o >= seg.N {
			break
		}
		rows = append(rows, int32(o))
	}
	k.EvalRows(out, seg, rows)
	r.cs.selU = rows
	return j
}

// feedTupleTo pushes one fact tuple (global row ord, with its bootstrap
// weights wf, nil outside the subsample) through join → certain filter →
// classification into st. Tuples that stay uncertain cache only their
// lineage and ord: their weights are regenerated where they are read.
func (r *blockRunner) feedTupleTo(fact types.Row, wf []float64, ord int, st *stage) {
	te, tab := st.te, st.tab
	for _, row := range st.joiner.Join(fact) {
		te.pointCtx.Row = row
		if r.certainWhere != nil && !r.certainWhere.Eval(te.pointCtx).Truthy() {
			continue
		}
		if r.uncertainWhere == nil {
			tab.fold(r.b, te.pointCtx, wf)
			st.folds++
			continue
		}
		switch te.evalTri(r.uncertainWhere, row) {
		case triTrue:
			te.pointCtx.Row = row
			tab.fold(r.b, te.pointCtx, wf)
			st.folds++
		case triFalse:
			// dropped forever
		default:
			st.cache(row, ord)
		}
	}
}
