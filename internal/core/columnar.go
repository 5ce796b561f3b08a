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
// the typed banks through one fold kernel (colFoldRuns; an arithmetic
// argument's bank computed by a numeric kernel per segment range);
// group keys resolve through a word-code memo that
// touches the canonical (hash + KeyEqual) path once per distinct key
// for as long as the group table it resolves into lives — once per
// query on a runner's table, once per batch on a worker stage's
// recycled one — and dimension fan-out resolves through a persistent
// join memo keyed by the same word codes (dimension tables are read once
// and never change mid-query, so the (key → joined rows) expansion is a
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
// path; Seams.RowPath forces the fallback globally.

// colPlan is a block's columnar eligibility decision plus the resolved
// column layout, built once on the controller and shared read-only by
// all workers.
type colPlan struct {
	ok bool
	// reason records the eligibility verdict: the disqualifying shape
	// when !ok, "columnar" when ok (see verdict()).
	reason string
	ct     *colstore.Table
	// hasDims marks a block with dimension joins: group entries resolve
	// per joined row through the join memo (colEntries).
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
	// column, a virtual computed column compBase+k, or -1 for a constant.
	aggCols []int
	// Virtual computed columns: the distinct compilable expression
	// arguments (deduplicated by expr.NumKernel.Key), read as columns
	// compBase+k. Each sweeper compiles them (colScratch.numK) and
	// evaluates them per segment range into its own kernel banks, so an
	// aggregate over `x * y` folds from a typed bank like one over `x`.
	compBase int
	exprs    []expr.Expr
	// Bank-stream aliases: aliasW[i]/aliasV[i] name the aggregate whose
	// physical bank cells carry aggregate i's replica stream. Aggregates
	// over the same plain or computed column receive bit-identical bank
	// additions — COUNT/SUM/AVG all add Σ w/p to W (their gates
	// coincide: SUM/AVG arguments are numeric by eligibility and computed
	// columns are numeric or NULL, so non-NULL ⟺ folds), and SUM/AVG both
	// add Σ v·w/p to V — so the columnar fold writes each distinct
	// stream once; reads redirect through the same aliases (installed on
	// the runner table).
	aliasW []int
	aliasV []int
	// srcs are the fold's argument sources, one per W stream owner
	// (aliasW[a] == a), in aggregate order.
	srcs []colSource
	// triKernel records that the block's uncertain predicate compiles to
	// the tri-state kernel (classifier).
	triKernel bool
}

// colSource is one argument source of the columnar fold: a plain
// column, a computed column or a constant, with the W stream it owns and
// the V stream its aggregates share. Every aggregate of a source folds
// under one gate — the column's non-NULL rows, or, for a constant, all
// rows or none — so the fold gathers a source's passing rows once and
// adds them to its two streams together (colFoldRuns).
type colSource struct {
	// col is the column the source reads (aggCols' numbering), -1 for a
	// constant; aggs are the aggregates it feeds, ascending.
	col  int
	aggs []int
	// w owns the W stream; v owns the V stream, -1 when every aggregate
	// of the source is a COUNT. floats marks a V read from the Floats
	// bank (else Ints).
	w, v   int
	floats bool
	// A constant's gate and AsFloat value, fixed for every row.
	ok bool
	f  float64
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
// and Report() show it ("columnar,tri:kernel").
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
	case e.opt.seams.RowPath:
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
	p.aggCols = make([]int, na)
	// Each aggregate's value bank kind, and a constant argument's gate
	// and value: COUNT folds a non-NULL constant, SUM/AVG an
	// AsFloat-convertible one.
	floats, konstOK, konstF := make([]bool, na), make([]bool, na), make([]float64, na)
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
			floats[i] = k == types.KindFloat
		case *expr.Const:
			p.aggCols[i] = -1
			konstF[i], konstOK[i] = a.V.AsFloat()
			if r.cltKinds[i] == cltCount {
				konstOK[i] = !a.V.IsNull()
			}
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
			floats[i] = k.Kind() == types.KindFloat
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

	// The fold's sources: one per W stream owner, each taking the
	// aggregates aliased to it and the V stream they share.
	srcOf := make([]int, na)
	for a, c := range p.aggCols {
		if w := p.aliasW[a]; w != a {
			srcOf[a] = srcOf[w]
		} else {
			srcOf[a] = len(p.srcs)
			p.srcs = append(p.srcs, colSource{col: c, w: a, v: -1, ok: konstOK[a], f: konstF[a]})
		}
		src := &p.srcs[srcOf[a]]
		src.aggs = append(src.aggs, a)
		if r.cltKinds[a] != cltCount && p.aliasV[a] == a {
			src.v, src.floats = a, floats[a]
		}
	}
	p.reason = "columnar"
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
	// ensureKernels, which also installs triK's one resolver: the keyed
	// slots resolve through the stage's te, whatever epoch it binds.
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
	// wf holds the weights of the row the row loop folds (rowWeights).
	wf []float64
	// runs gather one run's sampled rows for the bank fold, one per plan
	// source (colFoldRuns): each row that passes the source's gate
	// contributes its first weight key and argument value. They grow to
	// the longest gathered run (at most a segment's rows times a dims
	// row's fan-out) and are reused, so the steady state allocates
	// nothing.
	runs []colRun
	// pairRow/pairEnt are a dims block's (row, entry) pairs of the
	// selection being folded (colPairs).
	pairRow []int32
	pairEnt []*onlineEntry
	// numK compiles the plan's computed columns (exprs) behind the same
	// gate as kernel/triK; args holds each source's column for the
	// segment range being folded (resolveArgs): a stored bank, a numK
	// bank, or nil for a constant.
	numK []*expr.NumKernel
	args []*colstore.Col
	// Group memo: the key's word codes (one 64-bit physical code per memo
	// column plus a null-bit word) → the resolved table entry (no-dims:
	// memoEntries) or entry list (dims: entArena[memoOff:memoOff+memoCnt]).
	// Word codes are equal for identical stored values but may differ for
	// values that merely compare equal (-0.0 vs 0.0), so a memo miss
	// resolves through the canonical entryCurrent path — the memo is pure
	// memoization, never identity. It lives as long as the table it
	// resolves into: memoTab at generation memoGen (bindMemo). A runner
	// keeps it across sweeps and batches until replay replaces its table
	// (memoTab holds the old one, so the new one cannot reuse its
	// address); a worker stage restarts it every batch, when its table
	// is recycled; either restarts it when the encoding its word codes
	// index changes (ensureKernels), and the budget ladder's rung 1
	// releases it (dropMemo).
	memo        colstore.WordMemo
	memoEntries []*onlineEntry
	memoOff     []int32
	memoCnt     []int32
	entArena    []*onlineEntry
	memoTab     *onlineTable
	memoGen     uint64
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
	sole  *onlineEntry // the scalar block's one entry, under the group memo's lifetime
	// sweeps counts columnar segment sweeps, memoMisses the group memo's
	// misses (each a canonical resolution), reclassified the cached rows
	// the tri-state kernel re-examined under a classification
	// environment, pointed the cached rows it re-examined under the
	// snapshot's point environment (the point pass), encKeys the cached
	// rows whose group key the snapshot's bucket read from the encoding
	// (observability for tests and the alloc gates: proves the fast paths
	// actually engaged).
	sweeps       int64
	memoMisses   int64
	reclassified int64
	pointed      int64
	encKeys      int64
}

// colRun is one source's gathered rows of the run being folded: their
// weight keys and argument values (see foldLanes).
type colRun struct {
	keys []uint64
	fs   []float64
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
// certainly-in run, then cache the uncertain run. It returns
// false — having touched nothing — when the batch is not aligned with
// the columnar cache (or the kernels no longer compile against it),
// letting the caller fall back to the row loop.
//
// Splitting the row loop's per-row classify→weigh→fold/cache into
// per-segment stages changes no value: a tri decision is a pure function
// of (row, this batch's bindings), weights are counter hashes of the row
// index, folds touch only the table and cache appends only the uncertain
// buffer — so each of the two runs sees its rows in the same ascending
// order, against the same state, as the interleaved loop.
func (r *blockRunner) colFeed(rows []types.Row, baseIdx int, st *stage) bool {
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

	if cap(cs.tri) < ct.SegSize {
		cs.tri = make([]uint8, ct.SegSize)
	}
	if useTri && cap(cs.triU) < ct.SegSize {
		cs.triU = make([]uint8, ct.SegSize)
	}
	if len(cs.args) != len(p.srcs) {
		cs.args, cs.runs = make([]*colstore.Col, len(p.srcs)), make([]colRun, len(p.srcs))
	}
	if p.hasDims {
		cs.bindMemo(tab, len(p.memoCols)+1)
	} else {
		cs.bindMemo(tab, len(p.gbCols)+1)
	}
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
			r.colFoldRuns(st, seg)
		}
		t0 = time.Now()
		acc.ns[phaseFold] += int64(t0.Sub(t1))
		// Uncertain run: these rows cache their joined lineage and
		// ordinal, exactly as the row path would.
		for _, si := range cs.selU {
			i := int(si)
			if p.hasDims {
				// Uncertain rows need this row's own joined lineage (the
				// join memo retains the first-occurrence fact part, which
				// may differ outside the memo columns): run the real join.
				for _, jrow := range st.joiner.Join(seg.Rows[i]) {
					st.cache(jrow, seg.Base+i)
				}
			} else {
				st.cache(seg.Rows[i], seg.Base+i)
			}
		}
	}
	acc.ns[phaseClassify] += int64(time.Since(t0))
	return true
}

// bindMemo keeps the group memo while it resolves into tab at tab's
// current generation, and otherwise restarts it empty with key width
// width, bound to tab: a replaced table (replay's reset) or a recycled
// one (a worker stage between batches) holds none of the entries the
// memo points at. The capacity survives, so a worker stage's per-batch
// restart allocates nothing.
func (cs *colScratch) bindMemo(tab *onlineTable, width int) {
	if cs.memoTab == tab && cs.memoGen == tab.gen {
		return
	}
	cs.memo.Reset(width)
	clear(cs.memoEntries)
	cs.memoEntries = cs.memoEntries[:0]
	cs.memoOff, cs.memoCnt = cs.memoOff[:0], cs.memoCnt[:0]
	clear(cs.entArena)
	cs.entArena = cs.entArena[:0]
	cs.sole = nil
	cs.memoTab, cs.memoGen = tab, tab.gen
}

// dropMemo releases the group memo and its table: the next sweep
// restarts it (bindMemo).
func (cs *colScratch) dropMemo() {
	cs.memo = colstore.WordMemo{}
	cs.memoEntries, cs.entArena = nil, nil
	cs.memoOff, cs.memoCnt = nil, nil
	cs.sole, cs.memoTab = nil, nil
}

// ensureKernels (re)compiles st's kernels when the encoding they were
// lowered against changed identity or version: incremental appends grow
// dictionaries (constants that had no code may have one now; compiled
// code tables are sized to the old dictionary), and fault recovery
// swaps the table wholesale. The join memo, the group memo and the
// tri-state kernel's key memos key by dictionary codes, so they reset
// with the kernels.
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
			cs.triK.SetResolver(keyedResolver(cs.triK.Keyed(), &st.te, ct))
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
	cs.memoTab = nil // the group memo restarts at bindMemo
	cs.kernelCT, cs.kernelVer = ct, ct.Version()
}

// bindTri starts a classification epoch on k under te — at each
// colFeed set-up, each reclassify and each snapshot point pass, the
// points where today's bindings are read: the row-free slots get te's
// variation ranges (constant within the epoch; zero-width under the
// point environment) and every keyed value resolves afresh.
func bindTri(k *expr.TriKernel, te *triEnv) {
	for s, pe := range k.Slots() {
		pr := te.evalRange(pe, nil)
		k.SetRange(s, pr.r.Lo, pr.r.Hi, uint8(pr.status))
	}
	k.NewEpoch()
}

// keyedResolver resolves a kernel's keyed slots over encoding ct with
// the interpreter of the environment *env holds at call time: a keyed
// slot reads only its key column, so the value it resolves for one row
// is every same-key row's value, and the kernel's decisions are
// evalTri's by construction. The slot is evaluated on a scratch row
// holding just that column's value, read from its bank (the encoding
// round-trips every value), so resolving a key never touches the
// materialised row.
func keyedResolver(keyed []expr.KeyedSlot, env **triEnv, ct *colstore.Table) expr.KeyResolver {
	var row types.Row
	for _, ks := range keyed {
		if ks.Col >= len(row) {
			row = make(types.Row, ks.Col+1)
		}
	}
	return func(s int, seg *colstore.Segment, i int) (float64, float64, uint8) {
		te, ks := *env, &keyed[s]
		row[ks.Col] = ct.Value(seg, ks.Col, i)
		if ks.Pred {
			return 0, 0, uint8(te.evalTriNeg(ks.Expr, row, ks.Neg))
		}
		pr := te.evalRange(ks.Expr, row)
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
// entry identity (and creation order) matches the row loop exactly. A
// scalar block's one entry, once resolved, returns inline.
func (r *blockRunner) colEntry(tab *onlineTable, cs *colScratch, ct *colstore.Table, seg *colstore.Segment, i int) *onlineEntry {
	if cs.sole != nil {
		return cs.sole
	}
	return r.colLookup(tab, cs, ct, seg, i)
}

// colLookup is colEntry's memo path.
func (r *blockRunner) colLookup(tab *onlineTable, cs *colScratch, ct *colstore.Table, seg *colstore.Segment, i int) *onlineEntry {
	p := r.colPl
	if len(p.gbCols) == 0 {
		cs.memoMisses++
		cs.sole = tab.entryCurrent(r.b)
		return cs.sole
	}
	words, h := stageKey(&cs.memo, ct, seg, p.gbCols, i)
	if e := cs.memo.Find(words, h); e >= 0 {
		return cs.memoEntries[e]
	}
	// Miss: build the key row from the encoding, which round-trips every
	// value (the exact Values the row path would have used), and resolve
	// canonically.
	cs.memoMisses++
	for k, c := range p.gbCols {
		tab.keyRow[k] = ct.Value(seg, c, i)
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
// entry list per distinct memo-key word combination for the table's
// lifetime (bindMemo); the underlying join fan-out comes from the
// persistent join memo (joinRows). A miss still reads the materialised
// row, seg.Rows[i], but only for joiner.Join's probe on a join-memo miss.
func (r *blockRunner) colEntries(st *stage, ct *colstore.Table, seg *colstore.Segment, i int) []*onlineEntry {
	p, tab, cs := r.colPl, st.tab, &st.cs
	words, h := stageKey(&cs.memo, ct, seg, p.memoCols, i)
	if e := cs.memo.Find(words, h); e >= 0 {
		off := cs.memoOff[e]
		return cs.entArena[off : off+cs.memoCnt[e]]
	}
	// Miss: expand the join (memoized across sweeps) and resolve each
	// joined row's entry canonically, in join order.
	cs.memoMisses++
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

// colPairs expands a dims block's selection into (row, entry) pairs,
// cs.pairRow/pairEnt: each selected row's entries (colEntries) in join
// order. It returns the pairs' rows.
func (r *blockRunner) colPairs(st *stage, seg *colstore.Segment) []int32 {
	cs := &st.cs
	rows, ents := cs.pairRow[:0], cs.pairEnt[:0]
	for _, si := range cs.sel {
		for _, e := range r.colEntries(st, r.colPl.ct, seg, int(si)) {
			rows = append(rows, si)
			ents = append(ents, e)
		}
	}
	cs.pairRow, cs.pairEnt = rows, ents
	return rows
}

// resolveArgs points cs.args at each source's column for segment rows
// [lo,hi), once per range so the fold loop reads banks without a per-row
// branch on where they live: a stored column is seg's own bank, a
// computed one is evaluated into its kernel's bank (once per distinct
// expression), a constant is nil.
func (cs *colScratch) resolveArgs(p *colPlan, seg *colstore.Segment, lo, hi int) {
	for s, src := range p.srcs {
		switch c := src.col; {
		case c < 0:
			cs.args[s] = nil
		case c < p.compBase:
			cs.args[s] = &seg.Cols[c]
		default:
			cs.args[s] = cs.numK[c-p.compBase].Eval(seg, lo, hi)
		}
	}
}

// colFoldRuns is the columnar fold: it adds the certainly-in selection
// cs.sel into the banked accumulators straight from the source columns
// (resolveArgs), mirroring onlineTable.fold/foldBank cell for cell —
// same gates, same pre-scaled weights, so every float addition is
// bit-identical to the row path.
//
// It walks (row, entry) pairs: one per selected row, or, in a dims
// block, one per joined row in join order (colEntries), so a row that
// fans out folds into each of its entries as the row path folds each
// joined row. A run is a maximal stretch of consecutive pairs with the
// same entry (the whole selection when the block has no GROUP BY). Its
// pairs fold their main state (n, ns, mainW, mainV, clt) in order; each
// sampled pair appends its weight key and value to the gather of every
// source whose gate it passes (cs.runs), and when the run ends each
// source's gathered rows are added to its W and V streams (foldLanes),
// with the weights generated where they are folded. Every bank cell
// still receives the same additions in the same row order as a per-row
// loop over Engine.weights.
//
// A run of a moment-mode entry (acc non-nil) gathers nothing: each
// sampled pair adds its aggregates' gated values to the entry's batch
// moments (moment.go), so the trial axis leaves the row loop.
func (r *blockRunner) colFoldRuns(st *stage, seg *colstore.Segment) {
	p, tab, cs, ts := r.colPl, st.tab, &st.cs, r.ts
	srcs, kinds, trials := p.srcs, tab.cltKinds, tab.trials
	args, runs := cs.args[:len(srcs)], cs.runs[:len(srcs)]
	// A one-source plan's moment streams are its own W and V, in that
	// order, so a row adds its values straight to the moments
	// (addWV/addW); with more sources each row stages every stream's value
	// and adds the vector (add).
	staged := len(srcs) > 1
	rows, dims := cs.sel, p.hasDims
	if dims {
		rows = r.colPairs(st, seg)
	}
	var en *onlineEntry
	var acc *momentAcc
	gathered := false
	for k, si := range rows {
		i := int(si)
		var e *onlineEntry
		if dims {
			e = cs.pairEnt[k]
		} else {
			e = r.colEntry(tab, cs, p.ct, seg, i)
		}
		if e != en {
			// A run ends: its gathered rows fold into its entry's banks.
			if gathered {
				cs.foldGathered(p, en, trials, &ts.wlut)
				gathered = false
			}
			en = e
			acc = tab.momentOf(en)
		}
		gi := seg.Base + i
		sampled := r.eng.sampled(ts, gi)
		en.n++
		if sampled {
			en.ns++
		}
		for s := range srcs {
			src := &srcs[s]
			f, ok := src.f, src.ok
			if col := args[s]; col != nil {
				f, ok = 0, !col.Null(i)
				if ok && src.v >= 0 {
					if src.floats {
						f = col.Floats[i]
					} else {
						f = float64(col.Ints[i])
					}
				}
			}
			if ok {
				for _, a := range src.aggs {
					en.mainW[a]++
					if kinds[a] == cltCount {
						en.clt[a].add(1)
					} else {
						en.mainV[a] += f
						en.clt[a].add(f)
					}
				}
			}
			switch {
			case !sampled:
			case acc == nil:
				if ok {
					run := &runs[s]
					run.keys = append(run.keys, ts.weightKey(gi, trials))
					run.fs = append(run.fs, f)
					gathered = true
				}
			case staged:
				for _, a := range src.aggs {
					tab.mom.stageValue(a, f, ok)
				}
			case !ok:
			case src.v >= 0:
				acc.addWV(f)
			default:
				acc.addW()
			}
		}
		if sampled && acc != nil && staged {
			acc.add(tab.mom.x)
		}
	}
	if gathered {
		cs.foldGathered(p, en, trials, &ts.wlut)
	}
	st.folds += int64(len(rows))
}

// foldGathered adds each source's gathered rows to entry en's streams
// and empties the gathers.
func (cs *colScratch) foldGathered(p *colPlan, en *onlineEntry, trials int, wlut *[16]float64) {
	for s := range cs.runs {
		run := &cs.runs[s]
		if len(run.keys) == 0 {
			continue
		}
		src := &p.srcs[s]
		var bv []float64
		if src.v >= 0 {
			bv = en.bankV[src.v*trials : (src.v+1)*trials]
		}
		foldLanes(en.bankW[src.w*trials:(src.w+1)*trials], bv, run.keys, run.fs, wlut)
		run.keys, run.fs = run.keys[:0], run.fs[:0]
	}
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
