package core

import (
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/colstore"
	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/types"
)

// The columnar fold path. When a block's mini-batch hot loop is shaped
// right — banked (all-CLT) aggregates over fact columns or arithmetic
// on them, plain-column group keys, dimension joins keyed on plain fact
// columns and a vectorizable certain WHERE — each fold part sweeps whole
// colstore segments instead of walking boxed rows: the certain
// predicate runs as a compiled kernel, the uncertain predicate as a
// compiled tri-state kernel under the batch's injected variation ranges
// (or, where it does not compile, through the interpreter per surviving
// row), and the surviving rows split into certainly-in / uncertain
// runs. Certainly-in rows feed the banked accumulators straight from
// the typed banks (an arithmetic argument's computed by a numeric
// kernel per segment range); group keys resolve through a word-code memo that
// touches the canonical (hash + KeyEqual) path once per distinct key
// per sweep, and dimension fan-out resolves through a persistent join
// memo keyed by the same word codes (dimension tables are read once and
// never change mid-query, so the (key → joined rows) expansion is a
// pure function of the key words).
//
// The path is strictly an execution strategy, never a semantics change:
// every accumulator cell receives the same float additions in the same
// ascending-row order as the row path, groups are created at the same
// first-occurrence positions, bootstrap weights/subsample membership are
// the same pure counter hashes, and uncertain rows carry the same
// joined lineage — so snapshots, CIs and uncertain sets are
// bit-identical (pinned by TestColumnarBitIdentical across seeds and
// parallelism). Anything outside the shape falls back per batch (or per
// block, with the disqualifying reason recorded on the plan) to the row
// path; Options.RowPath forces the fallback globally.

// colPlan is a block's columnar eligibility decision plus the resolved
// column layout, built once on the controller and shared read-only by
// all workers.
type colPlan struct {
	ok bool
	// reason records the eligibility verdict: the disqualifying shape
	// when !ok, the engaged flavor when ok (see verdict()).
	reason string
	ct     *colstore.Table
	// hasDims marks a block with dimension joins: group entries resolve
	// per joined row through the join memo (colEntries), and fusing is
	// off.
	hasDims bool
	// memoCols are the deduplicated fact columns whose word codes key
	// both the group memo and the join memo for dims blocks: every dim
	// join key plus every fact-side group-by column. Rows equal on these
	// words have identical join fan-out, dim-side key values and
	// fact-side key values — so they fold into the same entry list.
	memoCols []int
	// gbCols is the joined-schema column of each GROUP BY expression
	// (fact-schema when the block has no dims).
	gbCols []int
	// aggCols is the column each aggregate argument reads — a fact-schema
	// column, a virtual computed column compBase+k, or -1 for a constant;
	// aggFloats flags float banks (else int).
	aggCols   []int
	aggFloats []bool
	// Virtual computed columns: the distinct compilable expression
	// arguments (deduplicated by expr.NumKernel.Key), read as columns
	// compBase+k. Each sweeper compiles them (colScratch.numK) and
	// evaluates them per segment range into its own kernel banks, so an
	// aggregate over `x * y` folds from a typed bank like one over `x`.
	compBase int
	exprs    []expr.Expr
	// Constant-argument values, pre-gated: aggConstNull flags SQL NULL,
	// aggConstF holds the AsFloat value, aggConstOK its validity.
	aggConstNull []bool
	aggConstF    []float64
	aggConstOK   []bool
	// Bank-stream aliases: aliasW[i]/aliasV[i] name the aggregate whose
	// physical bank cells carry aggregate i's replica stream. Aggregates
	// over the same plain or computed column receive bit-identical bank
	// additions — COUNT/SUM/AVG all add Σ w·repW to W (their gates
	// coincide: SUM/AVG arguments are numeric by eligibility and computed
	// columns are numeric or NULL, so non-NULL ⟺ folds), and SUM/AVG both
	// add Σ v·w·repW to V — so the columnar fold writes each distinct
	// stream once; reads redirect through the same aliases (installed on
	// the runner table).
	aliasW []int
	aliasV []int
	// Fused kernel shape: when every aggregate reads the same (plain or
	// computed) column, the whole bank fold collapses to at most one W
	// stream and one V stream, and weight generation fuses into the fold
	// loop. fuse is that eligibility; fusePrimV the V-stream owner (-1
	// when all aggregates are COUNTs).
	fuse      bool
	fusePrimV int
	// triKernel records that the block's uncertain predicate compiles to
	// the tri-state kernel (classifier).
	triKernel bool
}

// verdict renders the plan's eligibility for traces and reports.
func (p *colPlan) verdict() string {
	if p == nil {
		return "unplanned"
	}
	if p.ok {
		return p.reason
	}
	return "rowpath:" + p.reason
}

// classifier names what decides the block's uncertain predicate, for
// new rows (colSelect) and cached ones (reclassify): "tri:kernel" when
// the columnar plan holds and the predicate compiled, "tri:interp"
// otherwise, "" without an uncertain predicate.
func (r *blockRunner) classifier() string {
	switch {
	case r.uncertainWhere == nil:
		return ""
	case r.colPl != nil && r.colPl.ok && r.colPl.triKernel:
		return "tri:kernel"
	default:
		return "tri:interp"
	}
}

// joinNote renders a block's verdict with its classifier, as EvColPlan
// and Report() show it ("columnar:fused,tri:kernel").
func joinNote(verdict, classifier string) string {
	if classifier == "" {
		return verdict
	}
	return verdict + "," + classifier
}

// ensureColPlan builds the block's columnar plan on first use. Must run
// on the controller goroutine before workers are submitted (workers
// share the runner shallowly and read the plan pointer).
func (r *blockRunner) ensureColPlan() {
	if r.colPl != nil {
		return
	}
	r.colPl = r.buildColPlan()
}

// revalidateColPlan re-acquires the columnar encoding after a fault
// dropped it mid-query (chaos segment-seal faults null the plan's table
// but leave the plan valid). Controller-only, between feeds. The
// re-acquired encoding derives its dictionaries from the same rows in
// the same order, so word codes match the dropped one; per-sweeper
// kernels recompile through the identity/version gate in colFeed. The
// memory-budget ladder instead clears ok, which this never resurrects.
func (r *blockRunner) revalidateColPlan() {
	p := r.colPl
	if p == nil || !p.ok || p.ct != nil {
		return
	}
	if tbl, ok := r.eng.cat.Get(r.b.Input.Fact); ok {
		p.ct = tbl.Columnar()
	}
}

func (r *blockRunner) buildColPlan() *colPlan {
	p := &colPlan{}
	e := r.eng
	b := r.b
	switch {
	case e.opt.RowPath:
		p.reason = "forced"
		return p
	case len(b.Aggs) == 0:
		p.reason = "agg:none"
		return p
	case !r.tab.banked:
		p.reason = "agg:not-estimable"
		return p
	}
	tbl, ok := e.cat.Get(b.Input.Fact)
	if !ok {
		p.reason = "input:no-fact-table"
		return p
	}
	ct := tbl.Columnar()
	factW := len(ct.Schema)
	clean := func(idx int) bool {
		return idx >= 0 && idx < factW && !ct.Mixed[idx]
	}
	// Dimension joins: every join key must be a plain clean fact column,
	// so the (key, dim) expansion is a pure function of the key word
	// codes and memoizable per distinct combination (colEntries).
	// Chained keys (reading an earlier dim's columns) stay on the row
	// path.
	p.hasDims = len(b.Dims) > 0
	inMemo := map[int]bool{}
	for _, d := range b.Dims {
		c, isCol := d.LeftKey.(*expr.Col)
		if !isCol {
			p.reason = "join:expr-key"
			return p
		}
		if c.Idx < 0 || c.Idx >= factW {
			p.reason = "join:chained"
			return p
		}
		if !clean(c.Idx) {
			p.reason = "join:mixed-column"
			return p
		}
		if !inMemo[c.Idx] {
			inMemo[c.Idx] = true
			p.memoCols = append(p.memoCols, c.Idx)
		}
	}
	width := len(b.Input.Schema)
	for _, g := range b.GroupBy {
		c, isCol := g.(*expr.Col)
		if !isCol || c.Idx < 0 || c.Idx >= width {
			p.reason = "group:expr-key"
			return p
		}
		if c.Idx < factW {
			if !clean(c.Idx) {
				p.reason = "group:mixed-column"
				return p
			}
			if p.hasDims && !inMemo[c.Idx] {
				inMemo[c.Idx] = true
				p.memoCols = append(p.memoCols, c.Idx)
			}
		}
		// Dim-side keys need no gate of their own: they are read from the
		// memoized joined rows, whose dim part is a pure function of the
		// memo key columns.
		p.gbCols = append(p.gbCols, c.Idx)
	}
	na := len(b.Aggs)
	p.aggCols, p.aggFloats = make([]int, na), make([]bool, na)
	p.aggConstNull, p.aggConstF, p.aggConstOK = make([]bool, na), make([]float64, na), make([]bool, na)
	p.compBase = factW
	computed := map[string]int{} // NumKernel.Key → virtual column
	for i := range b.Aggs {
		switch a := b.Aggs[i].Arg.(type) {
		case *expr.Col:
			if a.Idx >= factW {
				p.reason = "agg:dim-column"
				return p
			}
			if !clean(a.Idx) {
				p.reason = "agg:mixed-column"
				return p
			}
			k := ct.Schema[a.Idx].Type
			// COUNT only needs the null bitmap; SUM/AVG read the value and
			// need a numeric/bool bank (strings would never fold anyway, but
			// keeping them on the row path avoids a do-nothing special case).
			if r.cltKinds[i] != cltCount && k != types.KindInt && k != types.KindFloat && k != types.KindBool {
				p.reason = "agg:non-numeric"
				return p
			}
			p.aggCols[i] = a.Idx
			p.aggFloats[i] = k == types.KindFloat
		case *expr.Const:
			p.aggCols[i] = -1
			p.aggConstNull[i] = a.V.IsNull()
			p.aggConstF[i], p.aggConstOK[i] = a.V.AsFloat()
		default:
			if readsDims(a, factW) {
				p.reason = "agg:dim-column"
				return p
			}
			k := expr.CompileNumKernel(a, ct)
			if k == nil {
				p.reason = "agg:expr-arg"
				return p
			}
			c, seen := computed[k.Key()]
			if !seen {
				c = factW + len(p.exprs)
				computed[k.Key()] = c
				p.exprs = append(p.exprs, a)
			}
			p.aggCols[i] = c
			p.aggFloats[i] = k.Kind() == types.KindFloat
		}
	}
	if r.certainWhere != nil && expr.CompileKernel(r.certainWhere, ct) == nil {
		p.reason = "where:uncompilable"
		return p
	}
	// Without dims, an uncompilable uncertain predicate classifies
	// through the interpreted evalTri inside the sweep (colSelect); with
	// dims the sweep classifies fact rows before joining, which is only
	// sound through the (fact-column-only, by construction) tri-state
	// kernel.
	p.triKernel = r.uncertainWhere != nil && expr.CompileTriKernel(r.uncertainWhere, ct) != nil
	if p.hasDims && r.uncertainWhere != nil && !p.triKernel {
		p.reason = "uncertain:uncompilable"
		return p
	}
	p.ct = ct
	p.ok = true

	// Bank-stream dedup: alias each aggregate's W (and, for SUM/AVG, V)
	// stream to the first aggregate over the same plain or computed
	// column. Constant arguments keep their own streams (identity).
	p.aliasW = make([]int, len(b.Aggs))
	p.aliasV = make([]int, len(b.Aggs))
	for i := range p.aliasW {
		p.aliasW[i], p.aliasV[i] = i, i
	}
	for i, c := range p.aggCols {
		if c < 0 {
			continue
		}
		for j := 0; j < i; j++ {
			if p.aggCols[j] == c {
				p.aliasW[i] = p.aliasW[j]
				break
			}
		}
		if r.cltKinds[i] != cltCount {
			for j := 0; j < i; j++ {
				if p.aggCols[j] == c && r.cltKinds[j] != cltCount {
					p.aliasV[i] = p.aliasV[j]
					break
				}
			}
		}
	}
	// Aliased reads must be installed on the runner table before the
	// first snapshot; workers fold into stage tables through the plan's
	// aliases and merge cell-wise, so stage tables need no read aliases.
	r.tab.bankOfW = p.aliasW
	r.tab.bankOfV = p.aliasV

	// Fused-kernel eligibility: one shared (plain or computed) column
	// means one W stream (owned by aggregate 0) and at most one V
	// stream. Dims blocks fold once per joined row, so they keep the
	// generic loop.
	p.fuse = !p.hasDims
	p.fusePrimV = -1
	for i, c := range p.aggCols {
		if c < 0 || c != p.aggCols[0] {
			p.fuse = false
			break
		}
		if r.cltKinds[i] != cltCount && p.fusePrimV < 0 {
			p.fusePrimV = i
		}
	}
	switch {
	case p.fuse:
		p.reason = "columnar:fused"
	case p.hasDims:
		p.reason = "columnar:dims"
	default:
		p.reason = "columnar"
	}
	return p
}

// readsDims reports whether e reads a joined dimension column (one past
// the fact schema's factW columns).
func readsDims(e expr.Expr, factW int) bool {
	dims := false
	expr.Walk(e, func(x expr.Expr) bool {
		if c, ok := x.(*expr.Col); ok && c.Idx >= factW {
			dims = true
		}
		return !dims
	})
	return dims
}

// colScratch is one sweeper's (serial runner or worker stage) reusable
// columnar state: the compiled kernels (per-sweeper — kernels own
// scratch and are not goroutine-safe), tri/selection vectors, weight
// scratch, the group-key word memo, and the persistent join memo.
type colScratch struct {
	// kernel/triK are recompiled whenever the columnar encoding they
	// were lowered against changes identity or version: incremental
	// appends grow dictionaries (a previously-absent string constant may
	// now have a code), and chaos/budget faults swap the table. The gate
	// compares (kernelCT, kernelVer) against the plan's table in
	// ensureKernels.
	kernel    *expr.Kernel
	triK      *expr.TriKernel
	kernelCT  *colstore.Table
	kernelVer uint64
	// tri/triU hold a segment's certain and uncertain kernel bytes and
	// sel/selU its certainly-in and uncertain selections; reclassify,
	// which never overlaps a sweep of its stage, reuses triU for a run's
	// decisions and selU for its gathered rows.
	tri  []uint8
	triU []uint8
	sel  []int32
	selU []int32
	wf   []float64
	wbuf []uint8
	// runKey/runF gather one run's sampled, non-NULL rows for the fused
	// kernel's bank fold (colFoldRuns): each row's first weight key and
	// argument value. They grow to the longest gathered run (at most a
	// segment) and are reused, so the steady state allocates nothing.
	runKey []uint64
	runF   []float64
	// numK compiles the plan's computed columns (exprs) behind the same
	// gate as kernel/triK; args holds each aggregate's argument column
	// for the segment range being folded (resolveArgs): a stored bank, a
	// numK bank, or nil for a constant.
	numK []*expr.NumKernel
	args []*colstore.Col
	// Group memo: the key's word codes (one 64-bit physical code per memo
	// column plus a null-bit word) → the resolved table entry (no-dims:
	// memoEntries) or entry list (dims: entArena[memoOff:memoOff+memoCnt]).
	// Word codes are equal for identical stored values but may differ for
	// values that merely compare equal (-0.0 vs 0.0), so a memo miss
	// resolves through the canonical entryCurrent path — the memo is pure
	// memoization, never identity. Reset per sweep: entries may be
	// recycled by stage tables between batches, so cached pointers never
	// outlive the colFeed call that resolved them.
	memo        colstore.WordMemo
	memoEntries []*onlineEntry
	memoOff     []int32
	memoCnt     []int32
	entArena    []*onlineEntry
	// Join memo: word codes → retained joined rows (jRows[jOff:jOff+jCnt])
	// for dims blocks. Dimension hash tables are built once per query and
	// never change, so the expansion of a fact key combination is stable:
	// this memo persists across sweeps and batches, cleared only with the
	// kernels (its keys are dictionary codes). Only memo-key columns and
	// the dim extensions of a retained row are ever read — the rest of
	// its fact part belongs to the first-occurrence row and may differ
	// from the current row's.
	jmemo colstore.WordMemo
	jOff  []int32
	jCnt  []int32
	jRows []types.Row
	sole  *onlineEntry // cached sole entry of scalar blocks
	// sweeps counts columnar segment sweeps, reclassified the cached rows
	// the tri-state kernel re-examined (observability for tests and the
	// alloc gates: proves the fast paths actually engaged).
	sweeps       int64
	reclassified int64
}

// stageKey stages segment-local row i's physical key over cols in m:
// one word code per column plus a null-bit word.
func stageKey(m *colstore.WordMemo, ct *colstore.Table, seg *colstore.Segment, cols []int, i int) ([]uint64, uint64) {
	words := m.Stage()
	var nulls uint64
	for k, c := range cols {
		w, null := ct.KeyWord(seg, c, i)
		if null {
			nulls |= 1 << uint(k)
			w = 0
		}
		words[k] = w
	}
	words[len(cols)] = nulls
	return words, colstore.MemoHash(words)
}

// colFeed sweeps rows[0:len) (= global rows baseIdx..) through the
// columnar pipeline into st: per segment range, select (classify every
// row into certainly-in / uncertain / gone), then weigh and fold the
// certainly-in run, then weigh and cache the uncertain run. It returns
// false — having touched nothing — when the batch is not aligned with
// the columnar cache (or the kernels no longer compile against it),
// letting the caller fall back to the row loop.
//
// Splitting the row loop's per-row classify→weigh→fold/cache into
// per-segment stages changes no value: a tri decision is a pure function
// of (row, this batch's bindings), weights are counter hashes of the row
// index, folds touch only the table and cache appends only the uncertain
// buffer and arena — so each of the two runs sees its rows in the same
// ascending order, against the same state, as the interleaved loop.
func (r *blockRunner) colFeed(rows []types.Row, baseIdx int, ws *weightSource, st *stage) bool {
	p := r.colPl
	if p == nil || !p.ok {
		return false
	}
	te, tab, acc, cs := st.te, st.tab, &st.acc, &st.cs
	ct := p.ct
	if ct == nil || !ct.Aligned(rows, baseIdx) {
		return false
	}
	r.ensureKernels(st, ct)
	if r.certainWhere != nil && cs.kernel == nil {
		return false
	}
	for _, k := range cs.numK {
		if k == nil {
			return false
		}
	}
	// Tri-state kernels replicate evalTri only under row-free parameter
	// ranges; set-block HAVING classification (rowRanges) stays per-row.
	useTri := cs.triK != nil && te.rowRanges == nil
	if p.hasDims && r.uncertainWhere != nil && !useTri {
		return false
	}
	if len(rows) == 0 {
		return true
	}

	trials := ws.trials
	if cap(cs.tri) < ct.SegSize {
		cs.tri = make([]uint8, ct.SegSize)
	}
	if useTri && cap(cs.triU) < ct.SegSize {
		cs.triU = make([]uint8, ct.SegSize)
	}
	if cap(cs.wf) < trials {
		cs.wf = make([]float64, trials)
	}
	if cap(cs.wbuf) < trials {
		cs.wbuf = make([]uint8, trials)
	}
	if len(cs.args) != len(p.aggCols) {
		cs.args = make([]*colstore.Col, len(p.aggCols))
	}
	// New sweep, new group memo (the join memo persists).
	if p.hasDims {
		cs.memo.Reset(len(p.memoCols) + 1)
	} else {
		cs.memo.Reset(len(p.gbCols) + 1)
	}
	cs.memoEntries = cs.memoEntries[:0]
	cs.memoOff, cs.memoCnt = cs.memoOff[:0], cs.memoCnt[:0]
	clear(cs.entArena)
	cs.entArena = cs.entArena[:0]
	cs.sole = nil
	tab.initKeyScratch(r.b)
	if useTri {
		// The batch's bindings: a new classification epoch.
		bindTri(cs.triK, te)
	}
	// Phases are timed per segment sweep, in the kernels every run
	// executes: classify is the selection plus the uncertain run's
	// caching, fold is argument resolution plus the fold kernel with the
	// weight derivation it interleaves.
	g := baseIdx
	end := baseIdx + len(rows)
	t0 := time.Now()
	for g < end {
		seg, lo := ct.Segment(g)
		hi := lo + (end - g)
		if hi > seg.N {
			hi = seg.N
		}
		g += hi - lo
		cs.sweeps++

		r.colSelect(st, seg, lo, hi, useTri)
		t1 := time.Now()
		acc.ns[phaseClassify] += int64(t1.Sub(t0))

		// Certainly-in run: fold straight from the banks, stored or
		// computed over the run's span.
		if n := len(cs.sel); n > 0 {
			cs.resolveArgs(p, seg, int(cs.sel[0]), int(cs.sel[n-1])+1)
		}
		if p.fuse {
			r.colFoldRuns(st, ws, seg)
		} else {
			for _, si := range cs.sel {
				i := int(si)
				wf, repW := ws.floats(seg.Base + i)
				if p.hasDims {
					for _, en := range r.colEntries(st, ct, seg, i) {
						r.colFold(tab, p, en, cs.args, i, wf, repW)
						st.folds++
					}
				} else {
					r.colFold(tab, p, r.colEntry(tab, cs, ct, seg, i), cs.args, i, wf, repW)
					st.folds++
				}
			}
		}
		t0 = time.Now()
		acc.ns[phaseFold] += int64(t0.Sub(t1))
		// Uncertain run: these rows retain their byte weight vectors and
		// cache their joined lineage, exactly as the row path would.
		for _, si := range cs.selU {
			i := int(si)
			weights, _ := ws.bytes(seg.Base + i)
			if p.hasDims {
				// Uncertain rows need this row's own joined lineage (the
				// join memo retains the first-occurrence fact part, which
				// may differ outside the memo columns): run the real join.
				for _, jrow := range st.joiner.Join(seg.Rows[i]) {
					st.cache(jrow, weights, seg.Base+i)
				}
			} else {
				st.cache(seg.Rows[i], weights, seg.Base+i)
			}
		}
	}
	acc.ns[phaseClassify] += int64(time.Since(t0))
	return true
}

// ensureKernels (re)compiles st's kernels when the encoding they were
// lowered against changed identity or version: incremental appends grow
// dictionaries (constants that had no code may have one now; compiled
// code tables are sized to the old dictionary), and fault recovery
// swaps the table wholesale. The join memo and the tri-state kernel's
// key memos key by dictionary codes, so they reset with the kernels.
func (r *blockRunner) ensureKernels(st *stage, ct *colstore.Table) {
	cs := &st.cs
	if cs.kernelCT == ct && cs.kernelVer == ct.Version() {
		return
	}
	cs.kernel, cs.triK = nil, nil
	if r.certainWhere != nil {
		cs.kernel = expr.CompileKernel(r.certainWhere, ct)
	}
	if r.uncertainWhere != nil {
		if cs.triK = expr.CompileTriKernel(r.uncertainWhere, ct); cs.triK != nil {
			cs.triK.SetResolver(keyedResolver(cs.triK.Keyed(), &st.te))
		}
	}
	cs.numK = cs.numK[:0]
	for _, x := range r.colPl.exprs {
		cs.numK = append(cs.numK, expr.CompileNumKernel(x, ct))
	}
	cs.jmemo.Reset(len(r.colPl.memoCols) + 1)
	cs.jOff, cs.jCnt = cs.jOff[:0], cs.jCnt[:0]
	clear(cs.jRows)
	cs.jRows = cs.jRows[:0]
	cs.kernelCT, cs.kernelVer = ct, ct.Version()
}

// bindTri starts a classification epoch on k under te — at each
// colFeed set-up and each reclassify, the points where today's bindings
// are read: the row-free slots get te's variation ranges (constant
// within the epoch) and every keyed value resolves afresh.
func bindTri(k *expr.TriKernel, te *triEnv) {
	for s, pe := range k.Slots() {
		pr := te.evalRange(pe, nil)
		k.SetRange(s, pr.r.Lo, pr.r.Hi, uint8(pr.status))
	}
	k.NewEpoch()
}

// keyedResolver resolves a kernel's keyed slots with the interpreter
// of the environment *env holds at call time, on the row itself: a
// keyed slot reads only its key column, so the value it resolves for
// one row is every same-key row's value, and the kernel's decisions
// are evalTri's by construction.
func keyedResolver(keyed []expr.KeyedSlot, env **triEnv) expr.KeyResolver {
	return func(s int, seg *colstore.Segment, i int) (float64, float64, uint8) {
		te, row := *env, seg.Rows[i]
		if keyed[s].Pred {
			return 0, 0, uint8(te.evalTri(keyed[s].Expr, row))
		}
		pr := te.evalRange(keyed[s].Expr, row)
		return pr.r.Lo, pr.r.Hi, uint8(pr.status)
	}
}

// colSelect classifies segment rows [lo,hi) into cs.sel (certainly-in)
// and cs.selU (uncertain), both in ascending row order — which is what
// keeps accumulator addition sequences, group creation order and the
// uncertain cache identical to the row loop. Rows failing the certain
// kernel are gone; survivors classify under the uncertain predicate by
// the tri-state kernel's vector when it compiled (and applies: useTri),
// else by the interpreted evalTri per row.
func (r *blockRunner) colSelect(st *stage, seg *colstore.Segment, lo, hi int, useTri bool) {
	cs := &st.cs
	var pass, tu []uint8
	if cs.kernel != nil {
		pass = cs.tri[:seg.N]
		cs.kernel.EvalInto(pass, seg, lo, hi)
	}
	if useTri {
		tu = cs.triU[:seg.N]
		cs.triK.EvalInto(tu, seg, lo, hi)
	}
	sel, selU := cs.sel[:0], cs.selU[:0]
	for i := lo; i < hi; i++ {
		if pass != nil && pass[i] != expr.TriTrue {
			continue
		}
		d := expr.TriTrue
		if tu != nil {
			d = tu[i]
		} else if r.uncertainWhere != nil {
			d = uint8(st.te.evalTri(r.uncertainWhere, seg.Rows[i]))
		}
		switch d {
		case expr.TriTrue:
			sel = append(sel, int32(i))
		case expr.TriNull:
			selU = append(selU, int32(i))
		}
	}
	cs.sel, cs.selU = sel, selU
}

// colEntry resolves the group entry of segment-local row i through the
// word-code memo, falling back to the canonical hash path on a miss so
// entry identity (and creation order) matches the row loop exactly.
func (r *blockRunner) colEntry(tab *onlineTable, cs *colScratch, ct *colstore.Table, seg *colstore.Segment, i int) *onlineEntry {
	p := r.colPl
	if len(p.gbCols) == 0 {
		if cs.sole == nil {
			cs.sole = tab.entryCurrent(r.b)
		}
		return cs.sole
	}
	words, h := stageKey(&cs.memo, ct, seg, p.gbCols, i)
	if e := cs.memo.Find(words, h); e >= 0 {
		return cs.memoEntries[e]
	}
	// Miss: materialize the key row from the aliased source tuple (the
	// exact Values the row path would have used) and resolve canonically.
	row := seg.Rows[i]
	for k, c := range p.gbCols {
		tab.keyRow[k] = row[c]
	}
	en := tab.entryCurrent(r.b)
	cs.memo.Add(words, h)
	cs.memoEntries = append(cs.memoEntries, en)
	return en
}

// colEntries resolves the group entries of segment-local row i for a
// dims block: one entry per joined row, in join order — exactly the
// entries (and, on first occurrence, the creation order) the row path
// would produce by folding each joined row. The group memo caches the
// entry list per distinct memo-key word combination for the current
// sweep; the underlying join fan-out comes from the persistent join
// memo (joinRows).
func (r *blockRunner) colEntries(st *stage, ct *colstore.Table, seg *colstore.Segment, i int) []*onlineEntry {
	p, tab, cs := r.colPl, st.tab, &st.cs
	words, h := stageKey(&cs.memo, ct, seg, p.memoCols, i)
	if e := cs.memo.Find(words, h); e >= 0 {
		off := cs.memoOff[e]
		return cs.entArena[off : off+cs.memoCnt[e]]
	}
	// Miss: expand the join (memoized across sweeps) and resolve each
	// joined row's entry canonically, in join order.
	jlo, jcnt := cs.joinRows(st.joiner, words, h, seg.Rows[i])
	elo := int32(len(cs.entArena))
	for _, jrow := range cs.jRows[jlo : jlo+jcnt] {
		for k, c := range p.gbCols {
			tab.keyRow[k] = jrow[c]
		}
		cs.entArena = append(cs.entArena, tab.entryCurrent(r.b))
	}
	cs.memo.Add(words, h)
	cs.memoOff = append(cs.memoOff, elo)
	cs.memoCnt = append(cs.memoCnt, int32(len(cs.entArena))-elo)
	return cs.entArena[elo:]
}

// joinRows returns the (offset, count) into cs.jRows of the joined rows
// for the given memo-key words, running (and retaining) the real join
// on first occurrence. The retained rows are fresh allocations from the
// joiner (dims blocks never reuse join scratch), so holding them across
// batches is safe; the steady state joins each distinct key combination
// exactly once per query.
func (cs *colScratch) joinRows(jn *exec.Joiner, words []uint64, h uint64, fact types.Row) (int32, int32) {
	if e := cs.jmemo.Find(words, h); e >= 0 {
		return cs.jOff[e], cs.jCnt[e]
	}
	rows := jn.Join(fact)
	off := int32(len(cs.jRows))
	cs.jRows = append(cs.jRows, rows...)
	cs.jmemo.Add(words, h)
	cs.jOff = append(cs.jOff, off)
	cs.jCnt = append(cs.jCnt, int32(len(rows)))
	return off, int32(len(rows))
}

// resolveArgs points cs.args at each aggregate's argument column for
// segment rows [lo,hi), once per range so the fold loops read banks
// without a per-row branch on where they live: a stored column is
// seg's own bank, a computed one is evaluated into its kernel's bank
// (once per distinct expression — aliased aggregates share their
// owner's column), a constant is nil.
func (cs *colScratch) resolveArgs(p *colPlan, seg *colstore.Segment, lo, hi int) {
	for a, c := range p.aggCols {
		switch {
		case c < 0:
			cs.args[a] = nil
		case p.aliasW[a] != a:
			cs.args[a] = cs.args[p.aliasW[a]]
		case c < p.compBase:
			cs.args[a] = &seg.Cols[c]
		default:
			cs.args[a] = cs.numK[c-p.compBase].Eval(seg, lo, hi)
		}
	}
}

// colFold adds segment-local row i into the entry's banked accumulators
// straight from the argument banks (resolveArgs), mirroring
// onlineTable.fold/foldBank cell for cell: same per-aggregate order,
// same gating, same pre-scaled weight values — so every float addition
// is bit-identical. Deduplicated bank streams (plan aliases) are written
// once, by their owning aggregate; reads resolve through the same
// aliases.
func (r *blockRunner) colFold(tab *onlineTable, p *colPlan, e *onlineEntry, args []*colstore.Col, i int, wf []float64, repW float64) {
	e.n++
	if repW > 0 {
		e.ns++
	}
	trials := tab.trials
	for a := range p.aggCols {
		if tab.cltKinds[a] == cltCount {
			// COUNT folds any non-NULL input: only the null bitmap is read
			// (the column may be a string column with no numeric bank).
			var null bool
			if col := args[a]; col != nil {
				null = col.Null(i)
			} else {
				null = p.aggConstNull[a]
			}
			if !null {
				e.mainW[a]++
				e.clt[a].add(1)
				if wf != nil && p.aliasW[a] == a {
					bw := e.bankW[a*trials : a*trials+len(wf)]
					for j, x := range wf {
						bw[j] += x
					}
				}
			}
			continue
		}
		// SUM/AVG fold numeric inputs (AsFloat-convertible: NULLs and the
		// plan's kind gate exclude everything else).
		var f float64
		var fok bool
		if col := args[a]; col != nil {
			if !col.Null(i) {
				if p.aggFloats[a] {
					f, fok = col.Floats[i], true
				} else {
					f, fok = float64(col.Ints[i]), true
				}
			}
		} else {
			f, fok = p.aggConstF[a], p.aggConstOK[a]
		}
		if !fok {
			continue
		}
		e.mainW[a]++
		e.mainV[a] += f
		e.clt[a].add(f)
		if wf != nil {
			base := a * trials
			wOwn, vOwn := p.aliasW[a] == a, p.aliasV[a] == a
			switch {
			case wOwn && vOwn:
				bw := e.bankW[base : base+len(wf)]
				bv := e.bankV[base : base+len(wf)]
				for j, x := range wf {
					bw[j] += x
					bv[j] += f * x
				}
			case vOwn:
				bv := e.bankV[base : base+len(wf)]
				for j, x := range wf {
					bv[j] += f * x
				}
			case wOwn:
				bw := e.bankW[base : base+len(wf)]
				for j, x := range wf {
					bw[j] += x
				}
			}
		}
	}
}

// colFoldRuns is the fused generate+fold kernel over the certainly-in
// selection cs.sel when every aggregate reads one column (plan.fuse):
// there is then one W stream (aggregate 0's) and at most one V stream
// (fusePrimV's), and a row's weights are consumed nowhere else, so they
// are generated where they are folded, with no per-row weight vector.
//
// It walks sel in runs — maximal stretches of consecutive rows resolving
// to the same entry (the whole selection when the block has no GROUP
// BY). A run's rows fold their main state (n, ns, mainW, mainV, clt) in
// row order; its sampled, non-NULL rows are gathered into cs.runKey/runF
// and added to the banks (foldRun) when the next row resolves to another
// entry or the selection ends. Every bank cell still receives
// the same additions in the same row order as a per-row loop over
// ws.floats, so the kernel is bit-identical to the generic and row paths.
func (r *blockRunner) colFoldRuns(st *stage, ws *weightSource, seg *colstore.Segment) {
	p, tab, cs := r.colPl, st.tab, &st.cs
	col, trials := cs.args[0], tab.trials
	wantF := p.fusePrimV >= 0
	floats := wantF && p.aggFloats[p.fusePrimV]
	keys, fs := cs.runKey[:0], cs.runF[:0]
	var en *onlineEntry
	for _, si := range cs.sel {
		i := int(si)
		if e := r.colEntry(tab, cs, p.ct, seg, i); e != en {
			// A run ends: its gathered rows fold into its entry's banks.
			// The length check stays here, not in foldRun: grouped blocks
			// end a run on almost every row and rarely gather one.
			if len(keys) > 0 {
				p.foldRun(en, keys, fs, trials, &ws.wlut)
				keys, fs = keys[:0], fs[:0]
			}
			en = e
		}
		gi := seg.Base + i
		sampled := ws.e.sampled(ws.ts, gi)
		en.n++
		if sampled {
			en.ns++
		}
		if col.Null(i) {
			continue
		}
		var f float64
		switch {
		case floats:
			f = col.Floats[i]
		case wantF:
			f = float64(col.Ints[i])
		}
		for a := range p.aggCols {
			en.mainW[a]++
			if tab.cltKinds[a] == cltCount {
				en.clt[a].add(1)
			} else {
				en.mainV[a] += f
				en.clt[a].add(f)
			}
		}
		if sampled {
			keys = append(keys, ws.ts.weightKey(gi, trials))
			fs = append(fs, f)
		}
	}
	if len(keys) > 0 {
		p.foldRun(en, keys, fs, trials, &ws.wlut)
	}
	cs.runKey, cs.runF = keys, fs
	st.folds += int64(len(cs.sel))
}

// foldRun adds one run's gathered rows to entry en's fused W stream and,
// when the plan has one, its V stream.
func (p *colPlan) foldRun(en *onlineEntry, keys []uint64, fs []float64, trials int, wlut *[16]float64) {
	var bv []float64
	if p.fusePrimV >= 0 {
		bv = en.bankV[p.fusePrimV*trials : (p.fusePrimV+1)*trials]
	}
	foldLanes(en.bankW[:trials], bv, keys, fs, wlut)
}

// foldLanes adds the gathered rows' weights into the bank cells: bw[j]
// += x and, when bv is non-nil, bv[j] += f·x, where x = wlut[k] for
// row r's trial-j multiplicity k (lane j&3 of keys[r] + j>>2). The loop
// runs trial-block-outer, row-inner: four W and four V cells live in
// registers across the rows, and each row's four draws come from one
// hash. Each cell sees its additions in row order, as a per-row fold
// would add them.
func foldLanes(bw, bv []float64, keys []uint64, fs []float64, wlut *[16]float64) {
	fs = fs[:len(keys)]
	full := len(bw) &^ 3
	for j := 0; j < full; j += 4 {
		q := uint64(j >> 2)
		w0, w1, w2, w3 := bw[j], bw[j+1], bw[j+2], bw[j+3]
		if bv == nil {
			for _, key := range keys {
				k0, k1, k2, k3 := bootstrap.PoissonLanes(key + q)
				w0 += wlut[k0&15]
				w1 += wlut[k1&15]
				w2 += wlut[k2&15]
				w3 += wlut[k3&15]
			}
			bw[j], bw[j+1], bw[j+2], bw[j+3] = w0, w1, w2, w3
			continue
		}
		v := bv[j : j+4 : j+4]
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		for r, key := range keys {
			k0, k1, k2, k3 := bootstrap.PoissonLanes(key + q)
			x0, x1, x2, x3 := wlut[k0&15], wlut[k1&15], wlut[k2&15], wlut[k3&15]
			f := fs[r]
			w0 += x0
			w1 += x1
			w2 += x2
			w3 += x3
			v0 += f * x0
			v1 += f * x1
			v2 += f * x2
			v3 += f * x3
		}
		bw[j], bw[j+1], bw[j+2], bw[j+3] = w0, w1, w2, w3
		v[0], v[1], v[2], v[3] = v0, v1, v2, v3
	}
	if full == len(bw) {
		return
	}
	// Trial tail: the last key's first len(bw)-full lanes.
	q := uint64(full >> 2)
	for r, key := range keys {
		k0, k1, k2, k3 := bootstrap.PoissonLanes(key + q)
		x := [4]float64{wlut[k0&15], wlut[k1&15], wlut[k2&15], wlut[k3&15]}
		for l := range bw[full:] {
			bw[full+l] += x[l]
			if bv != nil {
				bv[full+l] += fs[r] * x[l]
			}
		}
	}
}
