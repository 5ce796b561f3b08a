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
// right — banked (all-CLT) aggregates over fact columns, plain-column
// group keys, dimension joins keyed on plain fact columns, a
// vectorizable certain WHERE, and (when present) an uncertain WHERE
// whose tri-state classification compiles — each shard sweeps whole
// colstore segments instead of walking boxed rows: the certain
// predicate runs as a compiled kernel, the uncertain predicate as a
// compiled tri-state kernel under the batch's injected variation
// ranges, and the surviving rows split into certainly-in / uncertain
// runs. Certainly-in rows feed the banked accumulators straight from
// the typed banks; group keys resolve through a word-code memo that
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
	// aggCols is the fact-schema column of each aggregate argument, -1
	// for constant arguments; aggFloats flags float banks (else int).
	aggCols   []int
	aggFloats []bool
	// Constant-argument values, pre-gated: aggConstNull flags SQL NULL,
	// aggConstF holds the AsFloat value, aggConstOK its validity.
	aggConstNull []bool
	aggConstF    []float64
	aggConstOK   []bool
	// Bank-stream aliases: aliasW[i]/aliasV[i] name the aggregate whose
	// physical bank cells carry aggregate i's replica stream. Aggregates
	// over the same plain column receive bit-identical bank additions —
	// COUNT/SUM/AVG all add Σ w·repW to W (their gates coincide on clean
	// columns: SUM/AVG arguments are numeric by eligibility, so non-NULL
	// ⟺ folds), and SUM/AVG both add Σ v·w·repW to V — so the columnar
	// fold writes each distinct stream once; reads redirect through the
	// same aliases (installed on the runner table).
	aliasW []int
	aliasV []int
	// Fused kernel shape: when every aggregate reads the same plain
	// column, the whole bank fold collapses to at most one W stream and
	// one V stream, and weight generation fuses into the fold loop.
	// fuse is that eligibility; fuseCol the shared column; fusePrimV the
	// V-stream owner (-1 when all aggregates are COUNTs).
	fuse      bool
	fuseCol   int
	fusePrimV int
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
			p.aggCols = append(p.aggCols, a.Idx)
			p.aggFloats = append(p.aggFloats, k == types.KindFloat)
			p.aggConstNull = append(p.aggConstNull, false)
			p.aggConstF = append(p.aggConstF, 0)
			p.aggConstOK = append(p.aggConstOK, false)
		case *expr.Const:
			f, fok := a.V.AsFloat()
			p.aggCols = append(p.aggCols, -1)
			p.aggFloats = append(p.aggFloats, false)
			p.aggConstNull = append(p.aggConstNull, a.V.IsNull())
			p.aggConstF = append(p.aggConstF, f)
			p.aggConstOK = append(p.aggConstOK, fok)
		default:
			p.reason = "agg:expr-arg"
			return p
		}
	}
	if r.certainWhere != nil && expr.CompileKernel(r.certainWhere, ct) == nil {
		p.reason = "where:uncompilable"
		return p
	}
	// Without dims, an uncompilable uncertain predicate degrades to the
	// per-row classification inside the sweep (variant B in colFeed);
	// with dims the sweep classifies fact rows before joining, which is
	// only sound through the (fact-column-only, by construction)
	// tri-state kernel.
	if p.hasDims && r.uncertainWhere != nil && expr.CompileTriKernel(r.uncertainWhere, ct) == nil {
		p.reason = "uncertain:uncompilable"
		return p
	}
	p.ct = ct
	p.ok = true

	// Bank-stream dedup: alias each aggregate's W (and, for SUM/AVG, V)
	// stream to the first aggregate over the same plain column. Constant
	// arguments keep their own streams (identity).
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
	// first snapshot; workers fold into shard tables through the plan's
	// aliases and merge cell-wise, so shard tables need no read aliases.
	r.tab.bankOfW = p.aliasW
	r.tab.bankOfV = p.aliasV

	// Fused-kernel eligibility: one shared plain column means one W
	// stream (owned by aggregate 0) and at most one V stream. Dims
	// blocks fold once per joined row, so they keep the generic loop.
	p.fuse = !p.hasDims
	p.fuseCol = p.aggCols[0]
	p.fusePrimV = -1
	for i, c := range p.aggCols {
		if c < 0 || c != p.fuseCol {
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

// colScratch is one sweeper's (serial runner or worker shard) reusable
// columnar state: the compiled kernels (per-sweeper — kernels own
// scratch and are not goroutine-safe), tri/selection vectors, weight
// scratch, the group-key word memo, and the persistent join memo.
type colScratch struct {
	// kernel/triK are recompiled whenever the columnar encoding they
	// were lowered against changes identity or version: incremental
	// appends grow dictionaries (a previously-absent string constant may
	// now have a code), and chaos/budget faults swap the table. The gate
	// compares (kernelCT, kernelVer) against the plan's table in colFeed.
	kernel    *expr.Kernel
	triK      *expr.TriKernel
	kernelCT  *colstore.Table
	kernelVer uint64
	tri       []uint8
	triU      []uint8
	sel       []int32
	selU      []int32
	wf        []float64
	wbuf      []uint8
	// Group memo: open-addressed map from the key's word codes (one
	// 64-bit physical code per memo column plus a null-bit word) to the
	// resolved table entry (no-dims: memoEntries) or entry list (dims:
	// entArena[memoOff:memoOff+memoCnt]). Word codes are equal for
	// identical stored values but may differ for values that merely
	// compare equal (-0.0 vs 0.0), so a memo miss resolves through the
	// canonical entryCurrent path — the memo is pure memoization, never
	// identity. Reset per sweep: entries are recycled between batches.
	memoKeys    []uint64 // stride = len(memo key columns)+1
	memoSlots   []int32  // 1-based into memo rows
	memoMask    uint64
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
	jKeys  []uint64
	jSlots []int32
	jMask  uint64
	jOff   []int32
	jCnt   []int32
	jRows  []types.Row
	sole   *onlineEntry // cached sole entry of scalar blocks
	// sweeps counts columnar segment sweeps (observability for tests and
	// the alloc gate: proves the fast path actually engaged).
	sweeps int64
}

// memoReset clears the group memo for a new sweep. Entries may be
// recycled by shard tables between batches, so cached pointers never
// outlive the colFeed call that resolved them. The join memo is NOT
// reset here: joined rows stay valid as long as the encoding does.
func (cs *colScratch) memoReset() {
	for i := range cs.memoSlots {
		cs.memoSlots[i] = 0
	}
	cs.memoKeys = cs.memoKeys[:0]
	cs.memoEntries = cs.memoEntries[:0]
	cs.memoOff = cs.memoOff[:0]
	cs.memoCnt = cs.memoCnt[:0]
	for i := range cs.entArena {
		cs.entArena[i] = nil
	}
	cs.entArena = cs.entArena[:0]
	cs.sole = nil
}

// jreset clears the join memo (the encoding changed: dictionary codes
// may have moved, so the cached words are meaningless).
func (cs *colScratch) jreset() {
	for i := range cs.jSlots {
		cs.jSlots[i] = 0
	}
	cs.jKeys = cs.jKeys[:0]
	cs.jOff = cs.jOff[:0]
	cs.jCnt = cs.jCnt[:0]
	for i := range cs.jRows {
		cs.jRows[i] = nil
	}
	cs.jRows = cs.jRows[:0]
}

func (cs *colScratch) memoGrow(stride int) {
	n := len(cs.memoSlots) * 2
	if n < 64 {
		n = 64
	}
	if cap(cs.memoSlots) >= n {
		cs.memoSlots = cs.memoSlots[:n]
		for i := range cs.memoSlots {
			cs.memoSlots[i] = 0
		}
	} else {
		cs.memoSlots = make([]int32, n)
	}
	cs.memoMask = uint64(n - 1)
	rows := len(cs.memoKeys) / stride
	for e := 0; e < rows; e++ {
		h := memoHash(cs.memoKeys[e*stride : (e+1)*stride])
		i := h & cs.memoMask
		for cs.memoSlots[i] != 0 {
			i = (i + 1) & cs.memoMask
		}
		cs.memoSlots[i] = int32(e + 1)
	}
}

func (cs *colScratch) jGrow(stride int) {
	n := len(cs.jSlots) * 2
	if n < 64 {
		n = 64
	}
	if cap(cs.jSlots) >= n {
		cs.jSlots = cs.jSlots[:n]
		for i := range cs.jSlots {
			cs.jSlots[i] = 0
		}
	} else {
		cs.jSlots = make([]int32, n)
	}
	cs.jMask = uint64(n - 1)
	rows := len(cs.jKeys) / stride
	for e := 0; e < rows; e++ {
		h := memoHash(cs.jKeys[e*stride : (e+1)*stride])
		i := h & cs.jMask
		for cs.jSlots[i] != 0 {
			i = (i + 1) & cs.jMask
		}
		cs.jSlots[i] = int32(e + 1)
	}
}

func memoHash(words []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h = bootstrap.Mix64(h ^ w)
	}
	return h
}

// colFeed sweeps rows[0:len) (= global rows baseIdx..) through the
// columnar classify+fold path into st. It returns false — having
// touched nothing — when the batch is not aligned with the columnar
// cache (or the kernels no longer compile against it), letting the
// caller fall back to the row loop.
func (r *blockRunner) colFeed(rows []types.Row, baseIdx int, ts *tableStream, pf *weightPrefetch, st *stage) bool {
	p := r.colPl
	if p == nil || !p.ok {
		return false
	}
	te, tab, uncertain, arena, folds, acc, cs := st.te, st.tab, &st.uncertain, &st.arena, &st.folds, &st.acc, &st.cs
	ct := p.ct
	if ct == nil || !ct.Aligned(rows, baseIdx) {
		return false
	}
	// (Re)compile the kernels when the encoding changed identity or
	// version: incremental appends grow dictionaries (constants that had
	// no code may have one now; compiled code tables are sized to the
	// old dictionary), and fault recovery swaps the table wholesale. The
	// join memo keys by dictionary codes, so it resets with the kernels.
	if cs.kernelCT != ct || cs.kernelVer != ct.Version() {
		cs.kernel, cs.triK = nil, nil
		if r.certainWhere != nil {
			cs.kernel = expr.CompileKernel(r.certainWhere, ct)
		}
		if r.uncertainWhere != nil {
			cs.triK = expr.CompileTriKernel(r.uncertainWhere, ct)
		}
		cs.jreset()
		cs.kernelCT, cs.kernelVer = ct, ct.Version()
	}
	if r.certainWhere != nil && cs.kernel == nil {
		return false
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

	e := r.eng
	prof := e.profile
	trials := e.opt.Trials
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
	cs.memoReset()
	tab.initKeyScratch(r.b)
	if useTri {
		// Inject the batch's variation ranges for the row-free parameter
		// sides of the uncertain predicate (constant within a batch).
		for s, pe := range cs.triK.Slots() {
			pr := te.evalRange(pe, nil)
			cs.triK.SetRange(s, pr.r.Lo, pr.r.Hi, uint8(pr.status))
		}
	}

	// wlut maps a Poisson(1) multiplicity (≤ 8; 16 slots so the masked
	// index elides bounds checks) to its pre-scaled float weight — the
	// identical float64(k)·repW product the row path computes per draw.
	// Every certainly-folded row consumes its weights only as these
	// floats, so the uint8 round trip survives solely for rows that stay
	// uncertain (their byte vectors are retained) and for prefetched
	// batches — the direct path re-qualifies per row, not per plan.
	var wlut [16]float64
	for k := range wlut {
		wlut[k] = float64(k) * ts.invP
	}
	fused := p.fuse && pf == nil && !prof && (r.uncertainWhere == nil || useTri)

	g := baseIdx
	end := baseIdx + len(rows)
	for g < end {
		seg, lo := ct.Segment(g)
		hi := lo + (end - g)
		if hi > seg.N {
			hi = seg.N
		}
		g += hi - lo
		cs.sweeps++

		var t0 time.Time
		if prof {
			t0 = time.Now()
		}
		// Classify the whole segment range in one pass per kernel; the
		// selections preserve ascending row order, which is what keeps
		// accumulator addition sequences, group creation order and the
		// uncertain cache identical to the row loop. Rows failing the
		// certain filter are gone; survivors split into certainly-in
		// (sel) and uncertain (selU) runs.
		sel := cs.sel[:0]
		selU := cs.selU[:0]
		switch {
		case cs.kernel != nil && useTri:
			tri := cs.tri[:seg.N]
			cs.kernel.EvalInto(tri, seg, lo, hi)
			tu := cs.triU[:seg.N]
			cs.triK.EvalInto(tu, seg, lo, hi)
			for i := lo; i < hi; i++ {
				if tri[i] != expr.TriTrue {
					continue
				}
				switch tu[i] {
				case expr.TriTrue:
					sel = append(sel, int32(i))
				case expr.TriNull:
					selU = append(selU, int32(i))
				}
			}
		case cs.kernel != nil:
			tri := cs.tri[:seg.N]
			cs.kernel.EvalInto(tri, seg, lo, hi)
			for i := lo; i < hi; i++ {
				if tri[i] == expr.TriTrue {
					sel = append(sel, int32(i))
				}
			}
		case useTri:
			tu := cs.triU[:seg.N]
			cs.triK.EvalInto(tu, seg, lo, hi)
			for i := lo; i < hi; i++ {
				switch tu[i] {
				case expr.TriTrue:
					sel = append(sel, int32(i))
				case expr.TriNull:
					selU = append(selU, int32(i))
				}
			}
		default:
			for i := lo; i < hi; i++ {
				sel = append(sel, int32(i))
			}
		}
		cs.sel, cs.selU = sel, selU
		if prof {
			t1 := time.Now()
			acc.ns[phaseClassify] += int64(t1.Sub(t0))
		}

		if fused {
			// The uncertain run (selU) still executes below: fusing only
			// collapses the certainly-in folds.
			for _, si := range sel {
				i := int(si)
				gi := seg.Base + i
				en := r.colEntry(tab, cs, ct, seg, i)
				r.colFoldFused(tab, p, en, seg, i, e.sampled(ts, gi),
					ts.weightBase+uint64(gi)*uint64(trials), &wlut)
				*folds++
			}
		} else if r.uncertainWhere != nil && !useTri {
			// Variant B: the uncertain predicate did not compile, so each
			// certain-filtered row classifies through the interpreted
			// evalTri — decided BEFORE weight materialization (both are
			// pure per-row functions, so the reorder changes no value):
			// certainly-out rows skip weight generation entirely, and
			// certainly-in rows take the direct float path.
			for _, si := range sel {
				i := int(si)
				gi := seg.Base + i
				if prof {
					t0 = time.Now()
				}
				d := te.evalTri(r.uncertainWhere, seg.Rows[i])
				if prof {
					t1 := time.Now()
					acc.ns[phaseClassify] += int64(t1.Sub(t0))
					t0 = t1
				}
				if d == triFalse {
					continue
				}
				repW := 0.0
				var weights []uint8
				var wf []float64
				if pf != nil {
					if ri := gi - pf.start; pf.sampled[ri] {
						weights = pf.weights[ri*trials : (ri+1)*trials]
						repW = ts.invP
					}
				} else if e.sampled(ts, gi) {
					repW = ts.invP
					if d == triTrue {
						// Fold-only consumption: prescale straight to floats via
						// the lut. float64(uint8(p)) == float64(p) for the Poisson
						// range, so the accumulator additions are bit-identical.
						wf = cs.wf[:trials]
						base := ts.weightBase + uint64(gi)*uint64(trials)
						for j := range wf {
							wf[j] = wlut[bootstrap.PoissonAt(base+uint64(j))&15]
						}
					} else {
						cs.wbuf = e.weightsInto(cs.wbuf, ts, gi)
						weights = cs.wbuf
					}
				}
				if prof {
					t1 := time.Now()
					acc.ns[phaseWeights] += int64(t1.Sub(t0))
					t0 = t1
				}
				if d != triTrue {
					*uncertain = append(*uncertain, uncertainRow{
						row: seg.Rows[i], weights: arena.hold(weights), repW: repW})
					if prof {
						acc.ns[phaseClassify] += int64(time.Since(t0))
					}
					continue
				}
				if repW > 0 && wf == nil && len(weights) > 0 {
					wf = cs.wf[:len(weights)]
					for j, w := range weights {
						wf[j] = float64(w) * repW
					}
				}
				en := r.colEntry(tab, cs, ct, seg, i)
				r.colFold(tab, p, en, ct, seg, i, wf, repW)
				*folds++
				if prof {
					acc.ns[phaseFold] += int64(time.Since(t0))
				}
			}
		} else {
			// Certainly-in run: fold straight from the banks with direct
			// float weights (uint8 only for prefetched batches).
			for _, si := range sel {
				i := int(si)
				gi := seg.Base + i
				if prof {
					t0 = time.Now()
				}
				repW := 0.0
				var wf []float64
				if pf != nil {
					if ri := gi - pf.start; pf.sampled[ri] {
						ws := pf.weights[ri*trials : (ri+1)*trials]
						repW = ts.invP
						wf = cs.wf[:trials]
						for j, w := range ws {
							wf[j] = float64(w) * repW
						}
					}
				} else if e.sampled(ts, gi) {
					repW = ts.invP
					wf = cs.wf[:trials]
					base := ts.weightBase + uint64(gi)*uint64(trials)
					for j := range wf {
						wf[j] = wlut[bootstrap.PoissonAt(base+uint64(j))&15]
					}
				}
				if prof {
					t1 := time.Now()
					acc.ns[phaseWeights] += int64(t1.Sub(t0))
					t0 = t1
				}
				if p.hasDims {
					for _, en := range r.colEntries(st, ct, seg, i) {
						r.colFold(tab, p, en, ct, seg, i, wf, repW)
						*folds++
					}
				} else {
					en := r.colEntry(tab, cs, ct, seg, i)
					r.colFold(tab, p, en, ct, seg, i, wf, repW)
					*folds++
				}
				if prof {
					acc.ns[phaseFold] += int64(time.Since(t0))
				}
			}
		}
		// Uncertain run: these rows retain their byte weight vectors and
		// cache their joined lineage, exactly as the row path would.
		// (Empty unless the tri kernel classified — variant B caches its
		// uncertain rows inline.)
		for _, si := range selU {
			i := int(si)
			gi := seg.Base + i
			if prof {
				t0 = time.Now()
			}
			repW := 0.0
			var weights []uint8
			if pf != nil {
				if ri := gi - pf.start; pf.sampled[ri] {
					weights = pf.weights[ri*trials : (ri+1)*trials]
					repW = ts.invP
				}
			} else if e.sampled(ts, gi) {
				cs.wbuf = e.weightsInto(cs.wbuf, ts, gi)
				weights = cs.wbuf
				repW = ts.invP
			}
			if prof {
				t1 := time.Now()
				acc.ns[phaseWeights] += int64(t1.Sub(t0))
				t0 = t1
			}
			if p.hasDims {
				// Uncertain rows need this row's own joined lineage (the
				// join memo retains the first-occurrence fact part, which
				// may differ outside the memo columns): run the real join.
				for _, jrow := range st.joiner.Join(seg.Rows[i]) {
					*uncertain = append(*uncertain, uncertainRow{
						row: jrow, weights: arena.hold(weights), repW: repW})
				}
			} else {
				*uncertain = append(*uncertain, uncertainRow{
					row: seg.Rows[i], weights: arena.hold(weights), repW: repW})
			}
			if prof {
				acc.ns[phaseClassify] += int64(time.Since(t0))
			}
		}
	}
	return true
}

// colEntry resolves the group entry of segment-local row i through the
// word-code memo, falling back to the canonical hash path on a miss so
// entry identity (and creation order) matches the row loop exactly.
func (r *blockRunner) colEntry(tab *onlineTable, cs *colScratch, ct *colstore.Table, seg *colstore.Segment, i int) *onlineEntry {
	p := r.colPl
	nk := len(p.gbCols)
	if nk == 0 {
		if cs.sole == nil {
			cs.sole = tab.entryCurrent(r.b)
		}
		return cs.sole
	}
	stride := nk + 1
	// Build the physical key: one word code per column + a null-bit word.
	n := len(cs.memoKeys)
	if cap(cs.memoKeys) < n+stride {
		grown := make([]uint64, n, (n+stride)*2+stride)
		copy(grown, cs.memoKeys)
		cs.memoKeys = grown
	}
	words := cs.memoKeys[n : n+stride]
	var nulls uint64
	for k, c := range p.gbCols {
		w, null := ct.KeyWord(seg, c, i)
		if null {
			nulls |= 1 << uint(k)
			w = 0
		}
		words[k] = w
	}
	words[nk] = nulls
	h := memoHash(words)
	if cs.memoSlots != nil {
		j := h & cs.memoMask
		for {
			s := cs.memoSlots[j]
			if s == 0 {
				break
			}
			cand := cs.memoKeys[int(s-1)*stride : int(s)*stride]
			match := true
			for x := 0; x < stride; x++ {
				if cand[x] != words[x] {
					match = false
					break
				}
			}
			if match {
				return cs.memoEntries[s-1]
			}
			j = (j + 1) & cs.memoMask
		}
	}
	// Miss: materialize the key row from the aliased source tuple (the
	// exact Values the row path would have used) and resolve canonically.
	row := seg.Rows[i]
	for k, c := range p.gbCols {
		tab.keyRow[k] = row[c]
	}
	en := tab.entryCurrent(r.b)
	// Insert into the memo.
	if (len(cs.memoEntries)+1)*8 > len(cs.memoSlots)*7 {
		cs.memoGrow(stride)
	}
	cs.memoKeys = cs.memoKeys[:n+stride]
	cs.memoEntries = append(cs.memoEntries, en)
	idx := int32(len(cs.memoEntries))
	j := h & cs.memoMask
	for cs.memoSlots[j] != 0 {
		j = (j + 1) & cs.memoMask
	}
	cs.memoSlots[j] = idx
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
	stride := len(p.memoCols) + 1
	n := len(cs.memoKeys)
	if cap(cs.memoKeys) < n+stride {
		grown := make([]uint64, n, (n+stride)*2+stride)
		copy(grown, cs.memoKeys)
		cs.memoKeys = grown
	}
	words := cs.memoKeys[n : n+stride]
	var nulls uint64
	for k, c := range p.memoCols {
		w, null := ct.KeyWord(seg, c, i)
		if null {
			nulls |= 1 << uint(k)
			w = 0
		}
		words[k] = w
	}
	words[stride-1] = nulls
	h := memoHash(words)
	if cs.memoSlots != nil {
		j := h & cs.memoMask
		for {
			s := cs.memoSlots[j]
			if s == 0 {
				break
			}
			cand := cs.memoKeys[int(s-1)*stride : int(s)*stride]
			match := true
			for x := 0; x < stride; x++ {
				if cand[x] != words[x] {
					match = false
					break
				}
			}
			if match {
				off := cs.memoOff[s-1]
				return cs.entArena[off : off+cs.memoCnt[s-1]]
			}
			j = (j + 1) & cs.memoMask
		}
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
	if (len(cs.memoOff)+1)*8 > len(cs.memoSlots)*7 {
		cs.memoGrow(stride)
	}
	cs.memoKeys = cs.memoKeys[:n+stride]
	cs.memoOff = append(cs.memoOff, elo)
	cs.memoCnt = append(cs.memoCnt, int32(len(cs.entArena))-elo)
	idx := int32(len(cs.memoOff))
	j := h & cs.memoMask
	for cs.memoSlots[j] != 0 {
		j = (j + 1) & cs.memoMask
	}
	cs.memoSlots[j] = idx
	return cs.entArena[elo:]
}

// joinRows returns the (offset, count) into cs.jRows of the joined rows
// for the given memo-key words, running (and retaining) the real join
// on first occurrence. The retained rows are fresh allocations from the
// joiner (dims blocks never reuse join scratch), so holding them across
// batches is safe; the steady state joins each distinct key combination
// exactly once per query.
func (cs *colScratch) joinRows(jn *exec.Joiner, words []uint64, h uint64, fact types.Row) (int32, int32) {
	stride := len(words)
	if cs.jSlots != nil {
		j := h & cs.jMask
		for {
			s := cs.jSlots[j]
			if s == 0 {
				break
			}
			cand := cs.jKeys[int(s-1)*stride : int(s)*stride]
			match := true
			for x := 0; x < stride; x++ {
				if cand[x] != words[x] {
					match = false
					break
				}
			}
			if match {
				return cs.jOff[s-1], cs.jCnt[s-1]
			}
			j = (j + 1) & cs.jMask
		}
	}
	rows := jn.Join(fact)
	off := int32(len(cs.jRows))
	cs.jRows = append(cs.jRows, rows...)
	n := len(cs.jKeys)
	if cap(cs.jKeys) < n+stride {
		grown := make([]uint64, n, (n+stride)*2+stride)
		copy(grown, cs.jKeys)
		cs.jKeys = grown
	}
	copy(cs.jKeys[n:n+stride], words)
	if (len(cs.jOff)+1)*8 > len(cs.jSlots)*7 {
		cs.jKeys = cs.jKeys[:n+stride]
		cs.jGrow(stride)
	} else {
		cs.jKeys = cs.jKeys[:n+stride]
	}
	cs.jOff = append(cs.jOff, off)
	cs.jCnt = append(cs.jCnt, int32(len(rows)))
	idx := int32(len(cs.jOff))
	j := h & cs.jMask
	for cs.jSlots[j] != 0 {
		j = (j + 1) & cs.jMask
	}
	cs.jSlots[j] = idx
	return off, int32(len(rows))
}

// colFold adds segment-local row i into the entry's banked accumulators
// straight from the column banks, mirroring onlineTable.fold/foldBank
// cell for cell: same per-aggregate order, same gating, same pre-scaled
// weight values — so every float addition is bit-identical. Deduplicated
// bank streams (plan aliases) are written once, by their owning
// aggregate; reads resolve through the same aliases.
func (r *blockRunner) colFold(tab *onlineTable, p *colPlan, e *onlineEntry, ct *colstore.Table, seg *colstore.Segment, i int, wf []float64, repW float64) {
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
			if c := p.aggCols[a]; c >= 0 {
				null = seg.Cols[c].Null(i)
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
		if c := p.aggCols[a]; c >= 0 {
			col := &seg.Cols[c]
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

// colFoldFused is the single-column fast kernel: when every aggregate
// reads the same plain column there is exactly one W stream (aggregate
// 0's) and at most one V stream, and the tuple's Poisson weights are
// consumed nowhere else — so weight generation, pre-scaling and the
// bank folds collapse into one loop with no intermediate buffer. wlut
// maps a Poisson(1) multiplicity to float64(k)·repW (the same two-step
// computation the generic path performs, so every addition is
// bit-identical). Used only off the profiled path: the split phase
// attribution (weights vs fold) needs the unfused loops.
func (r *blockRunner) colFoldFused(tab *onlineTable, p *colPlan, e *onlineEntry, seg *colstore.Segment, i int, sampled bool, wbase uint64, wlut *[16]float64) {
	e.n++
	if sampled {
		e.ns++
	}
	col := &seg.Cols[p.fuseCol]
	null := col.Null(i)
	var f float64
	if !null && p.fusePrimV >= 0 {
		if p.aggFloats[p.fusePrimV] {
			f = col.Floats[i]
		} else {
			f = float64(col.Ints[i])
		}
	}
	if !null {
		for a := range p.aggCols {
			if tab.cltKinds[a] == cltCount {
				e.mainW[a]++
				e.clt[a].add(1)
			} else {
				e.mainW[a]++
				e.mainV[a] += f
				e.clt[a].add(f)
			}
		}
	}
	if !sampled || null {
		return
	}
	trials := tab.trials
	bw := e.bankW[:trials]
	if p.fusePrimV >= 0 {
		base := p.fusePrimV * trials
		bv := e.bankV[base : base+trials]
		for j := 0; j < trials; j++ {
			x := wlut[bootstrap.PoissonAt(wbase+uint64(j))&15]
			bw[j] += x
			bv[j] += f * x
		}
		return
	}
	for j := 0; j < trials; j++ {
		bw[j] += wlut[bootstrap.PoissonAt(wbase+uint64(j))&15]
	}
}
