package core

import (
	"unsafe"

	"fluodb/internal/agg"
	"fluodb/internal/colstore"
	"fluodb/internal/expr"
	"fluodb/internal/types"
)

// Snapshot evaluation (DESIGN.md §8): every consumer of a block's
// current estimate — the root snapshot with its confidence intervals,
// and the scalar, correlated and membership bindings with their replica
// vectors — needs the block's deterministic state with the cached
// uncertain set lazily folded in (§3.3), once under the point bindings
// and once per bootstrap trial. snapEval computes that row-major:
//
//   - bucket: once per (runner, mini-batch) the cached rows are sorted
//     by destination group with a stable counting sort over row
//     indexes. Each row's group key is read from the encoding at the
//     row's ordinal (cachedKeyInto) when the encoding covers the cache
//     and every key is a plain fact column of a block without dims;
//     groupKeyInto on the materialised row remains only as the fallback
//     for expression keys, dims blocks and caches the encoding does not
//     cover. The key is resolved through the group table's own hash
//     probe; groups the table does not hold yet (every row of theirs is
//     still uncertain) are numbered after the table's, the first
//     storedExtraKeys of them with a copy of their key. The same pass
//     records which rows pass uncertainWhere under the point
//     bindings: by the runner's tri-state kernel, bound as reclassify
//     binds it but under the point environment (pointEnv: every
//     parameter at its point, as a zero-width range), which reads each
//     row at its stored fact ordinal in same-segment runs and resolves
//     each parameter key once from its bank; and by rowTri only for the
//     rows the kernel leaves undecided (an integer, string or NaN point
//     decides nothing) or when the kernel does not apply. The sort's
//     scratch is kept across batches.
//   - group at a time: a group's accumulators over the whole axis
//     (column 0 = main state, column 1+j = replica j) are seeded from
//     its table entry into one reusable scratch, and its rows are
//     folded in cache order.
//   - trial sweep: per row, the aggregate inputs and every parameter
//     key are resolved once (trialvec.go); the axis is then swept with
//     the row's regenerated weights (Engine.weights, only the lanes the
//     loaded columns read) masked by the per-trial truth of
//     uncertainWhere.
//     Where the encoding covers the cache, the predicate's trial lanes
//     read the row at its fact ordinal: column operands from their
//     banks, and a one-column correlated or membership key by its stored
//     word, which resolves the key's vector once per epoch.
//
// Each (group, column) cell therefore still sums "base, then its
// uncertain rows in cache order", and a masked lane adds 0.0, which
// leaves an accumulator bit-identical to skipping it: results equal the
// per-trial copy-on-write overlays this replaced bit for bit (pinned by
// TestSnapshotMatchesOverlayOracle).
//
// Rules every consumer relies on:
//
//   - a group absent from the table is visible (iterated, emitted) only
//     if a cached row passes under the point bindings, ordered by the
//     cache position of its first passing row;
//   - with no cached rows, accumulators are the table's banks as is;
//   - all of it is a pure function of the runner's table and cache and
//     of the bindings it depends on, which are fixed from the runner's
//     feed to the next mini-batch: the bucket index is rebuilt only
//     after invalidate;
//   - a consumer reads the loaded group's trial columns through one of
//     two replica readers, one per adjustment point: outputReps after the
//     select expression (snapshot confidence intervals, scalar and
//     correlated replica vectors), slotReps/slotRow on the post-aggregate
//     slots before HAVING (membership vectors, a set block's bootstrap
//     slot ranges). The readers alone apply the three replica rules:
//     a group counts in trial j only with bootstrap evidence there
//     (evidence); an empty SUM/COUNT slot carries zero mass, 0 and not
//     NULL (slots only: after the select expression a NULL is the
//     column's value); and, the replicas being drawn over a subsample of
//     fraction p of the fact stream, a numeric deviation from the point
//     shrinks by √p (the m-out-of-n correction).
type snapEval struct {
	r     *blockRunner
	width int // axis width: 1 + Trials

	// Lowered programs over the axis (nil = interpret), compiled once.
	compiled bool
	where    tvBool  // uncertainWhere
	having   tvBool  // HAVING over the post-aggregate layout
	sel      []tvNum // SELECT columns over the post-aggregate layout
	progMem  int64
	keys     []*tvKeys // the programs' key indexes
	keysCT   *colstore.Table
	keysVer  uint64
	env      tvEnv
	ctxs     *ctxSet
	bare     expr.Ctx // parameter-free context (group keys, aggregate inputs)

	// Bucket index over r.uncertain. Ids below nBase are table groups (the
	// entry's insertion rank); ids from nBase up are cache-only groups
	// in first-touch order, whose key lives in their first cached row
	// (and, for the first storedExtraKeys of them, in ex).
	valid   bool
	nBase   int
	order   []int32  // row indexes, grouped; cache order within a group
	start   []int32  // group g owns order[start[g]:start[g+1]]
	pass    []uint64 // bit i: row i passes uncertainWhere under the point bindings
	visible []int32  // cache-only groups visible under the point bindings, by first passing row
	// gid and ex are bucket's build scratch (each row's group id, the
	// probe table and keys of cache-only groups), kept across batches;
	// both stay valid until the next rebuild, so a key finds its
	// cache-only group (findExtra).
	gid []int32
	ex  extraGroups

	// pointEnv is the point pass's classification environment: every
	// parameter at its point estimate, as a zero-width range
	// (bindings.newPointEnv).
	pointEnv *triEnv

	// The loaded group.
	gi      int          // its group id while eachVisible visits it
	en      *onlineEntry // nil when the table does not hold the group
	key     types.Row    // its key values
	keyBuf  types.Row
	n       int       // axis columns loaded
	accW    []float64 // banked accumulators [agg*width + column]
	accV    []float64
	touched []bool    // a cached row folded into the column
	wf      []float64 // the row's masked, pre-scaled weights
	mask    []uint8
	argv    []types.Value
	argF    []float64
	argOK   []bool
	// states holds the non-banked accumulators: one cloned state set per
	// touched column, nil where the table's own states still stand.
	states [][]agg.State
	scale  float64 // the multiplicity finalize was given, for post rows

	// Replica-reader scratch (outputReps, slotReps, slotRow), kept across
	// groups and batches: the point and a trial's post row, the adjusted
	// key row, the slot rule of each post column, the trials with
	// evidence, and a set block's per-slot replica floats.
	ptRow, trRow, keyRep types.Row
	rules                []repRule
	live                 []bool
	slotVals             [][]float64
}

// eval returns the runner's evaluator, creating it on first use.
func (r *blockRunner) eval() *snapEval {
	if r.ev == nil {
		w := 1 + r.eng.opt.Trials
		na := len(r.b.Aggs)
		ev := &snapEval{r: r, width: w, ctxs: &ctxSet{b: r.eng.bind}}
		ev.env = tvEnv{bind: r.eng.bind, stride: w,
			slotF: make([]float64, na*w), slotNull: make([]bool, na*w)}
		ev.pointEnv = r.eng.bind.newPointEnv()
		ev.pointEnv.nodes = r.eng.triNodes
		ev.accW, ev.accV = make([]float64, na*w), make([]float64, na*w)
		ev.touched, ev.wf, ev.mask = make([]bool, w), make([]float64, w), make([]uint8, w)
		ev.argv, ev.argF, ev.argOK = make([]types.Value, na), make([]float64, na), make([]bool, na)
		ev.keyBuf = make(types.Row, len(r.b.GroupBy))
		nc := r.b.PostAggWidth()
		ev.rules, ev.live, ev.slotVals = make([]repRule, nc), make([]bool, w), make([][]float64, nc)
		for c, zero := range extensiveSlots(r.b) {
			ev.rules[c].zero = zero
		}
		if !r.tab.banked {
			ev.states = make([][]agg.State, w)
		}
		r.ev = ev
	}
	r.ev.prepare()
	return r.ev
}

// invalidateEval marks the bucket index stale: the runner's table or
// cache changed, or a binding it reads is about to.
func (r *blockRunner) invalidateEval() {
	if r.ev != nil {
		r.ev.valid = false
	}
}

// memBytes is the evaluator's resource charge (ledger scratch pool).
func (ev *snapEval) memBytes() int64 {
	if ev == nil {
		return 0
	}
	b := 4*int64(cap(ev.order)+cap(ev.start)+cap(ev.visible)+cap(ev.gid)+cap(ev.ex.slots)) +
		8*int64(cap(ev.pass)+cap(ev.ex.shown)) +
		8*int64(cap(ev.accW)+cap(ev.accV)+cap(ev.wf)+cap(ev.argF)+cap(ev.env.slotF)) +
		int64(cap(ev.env.slotNull)+cap(ev.touched)+cap(ev.mask)+cap(ev.argOK)+
			cap(ev.live)) + int64(unsafe.Sizeof(repRule{}))*int64(cap(ev.rules)) +
		rowValueBytes*int64(cap(ev.argv)+cap(ev.keyBuf)+cap(ev.ptRow)+cap(ev.trRow)+cap(ev.keyRep)+
			cap(ev.ex.keys)) +
		9*int64(ev.width*len(ev.env.scal)) + ev.progMem
	for _, k := range ev.keys { // the trial sweep's key indexes
		b += k.memBytes()
	}
	for _, v := range ev.slotVals {
		b += 8 * int64(cap(v))
	}
	return b
}

func (ev *snapEval) global() bool { return len(ev.r.b.GroupBy) == 0 }

// compile lowers the block's snapshot-time expressions once.
func (ev *snapEval) compile() {
	if ev.compiled {
		return
	}
	ev.compiled = true
	r := ev.r
	b := r.b
	c := &tvCompiler{bind: r.eng.bind, width: ev.width, slotBase: int(^uint(0) >> 1)}
	if r.uncertainWhere != nil {
		ev.where = c.pred(r.uncertainWhere)
	}
	ev.sel = make([]tvNum, len(b.Select))
	if r.tab.banked {
		// Post-aggregate programs read aggregate slots as float lanes,
		// which only banked (SUM/COUNT/AVG) blocks have.
		c.slotBase = len(b.GroupBy)
		if b.Having != nil {
			ev.having = c.pred(b.Having)
		}
		for i, se := range b.Select {
			ev.sel[i] = c.num(se)
		}
	}
	ev.progMem, ev.keys = c.mem, c.keys
}

// prepare makes the bucket index and the scalar lanes current.
func (ev *snapEval) prepare() {
	if ev.valid {
		return
	}
	ev.compile()
	ev.env.refreshScalars(ev.width)
	ev.r.eng.bind.refreshPointEnv(ev.pointEnv)
	ev.ctxs.refresh()
	ev.bindOrdinals()
	ev.bucket()
	ev.valid = true
}

// bindOrdinals starts an evaluation epoch for the trial sweep's keyed
// reads and decides whether it reads cached rows by ordinal: only when
// the block's columnar encoding covers every cached ordinal (the
// kernels' gate). The key indexes reset when the encoding changes.
func (ev *snapEval) bindOrdinals() {
	env, u := &ev.env, ev.r.uncertain
	env.epoch++
	env.ct = nil
	p := ev.r.colPl
	if p == nil || !p.ok || p.ct == nil || (len(u) > 0 && u[len(u)-1].ord >= p.ct.NumRows()) {
		return
	}
	env.ct = p.ct
	if ev.keysCT != p.ct || ev.keysVer != p.ct.Version() {
		for _, k := range ev.keys {
			k.reset()
		}
		ev.keysCT, ev.keysVer = p.ct, p.ct.Version()
	}
}

// rowTri evaluates uncertainWhere for one cached row over axis columns
// [lo,hi): lowered when possible, else one interpreter walk per column.
func (ev *snapEval) rowTri(row types.Row, lo, hi int) []uint8 {
	if ev.where != nil {
		ev.env.row = row
		if t, ok := ev.where.tri(&ev.env, lo, hi); ok {
			return t
		}
	}
	where := ev.r.uncertainWhere
	ctxs := ev.ctxs.axis(hi)
	for j := lo; j < hi; j++ {
		ctxs[j].Row = row
		ev.mask[j] = triOf(where.Eval(ctxs[j]))
	}
	return ev.mask
}

// cachedKeyInto reads cached row i's group key into dst and reports
// whether it read the encoding. Where the epoch reads by ordinal (env.ct:
// the encoding covers every cached ordinal) and the block has no dims,
// each key cell is read from its bank at the row's ordinal, in ordinal
// order rather than by chasing rows scattered over the heap; ct.Value
// returns the row's own value, so the groups are the same. (env.ct is
// set only under an ok columnar plan, whose gbCols holds a plain column
// for every GROUP BY term.) Otherwise the key is evaluated on the
// materialised row (groupKeyInto).
func (ev *snapEval) cachedKeyInto(dst types.Row, i int) bool {
	u := &ev.r.uncertain[i]
	if ct, p := ev.env.ct, ev.r.colPl; ct != nil && !p.hasDims {
		seg, j := ct.Segment(u.ord)
		for c, col := range p.gbCols {
			dst[c] = ct.Value(seg, col, j)
		}
		return true
	}
	ev.groupKeyInto(dst, u.row)
	return false
}

// groupKeyInto evaluates row's group key into dst.
func (ev *snapEval) groupKeyInto(dst types.Row, row types.Row) {
	t := ev.r.tab
	for c, g := range ev.r.b.GroupBy {
		if col := t.gbCols[c]; col >= 0 && col < len(row) {
			dst[c] = row[col]
		} else {
			ev.bare.Row = row
			dst[c] = g.Eval(&ev.bare)
		}
	}
}

// bucket rebuilds the index: point truth per row, destination group per
// row, stable counting sort. The index proper is retained (and charged
// to the ledger) for the epoch, the per-row group ids and the probe
// table of cache-only groups as scratch for the next rebuild.
func (ev *snapEval) bucket() {
	r := ev.r
	u := r.uncertain
	t := r.tab
	ev.nBase = len(t.entries)
	ev.order, ev.start, ev.visible = ev.order[:0], ev.start[:0], ev.visible[:0]
	words := (len(u) + 63) / 64
	if cap(ev.pass) < words {
		ev.pass = make([]uint64, words)
	}
	ev.pass = ev.pass[:words]
	clear(ev.pass)
	if len(u) == 0 {
		return
	}
	grouped := !ev.global()
	var gid []int32
	ex := &ev.ex
	if grouped {
		t.initKeyScratch(r.b)
		if cap(ev.gid) < len(u) {
			ev.gid = make([]int32, len(u))
		}
		gid = ev.gid[:len(u)]
		ex.reset(words)
	}
	k := r.reclassKernel(ev.pointEnv)
	run, runLo, runHi := r.cs.triU, 0, 0
	for i := range u {
		d := expr.TriNull
		if k != nil {
			if i == runHi {
				runLo, runHi = i, r.decideRun(k, run, i, len(u))
				r.cs.pointed += int64(runHi - runLo)
			}
			d = run[i-runLo]
		}
		if d == expr.TriNull {
			d = ev.rowTri(u[i].row, 0, 1)[0]
		}
		passes := d == expr.TriTrue
		if passes {
			ev.pass[i>>6] |= 1 << (uint(i) & 63)
		}
		if !grouped {
			continue
		}
		if ev.cachedKeyInto(t.keyRow, i) {
			r.cs.encKeys++
		}
		h := t.keyRow.HashKey(t.cols)
		g := t.findIdx(h, t.keyRow, t.cols)
		if g < 0 {
			x := ev.extra(gid, h, i)
			if passes && ex.shown[x>>6]&(1<<(uint(x)&63)) == 0 {
				ex.shown[x>>6] |= 1 << (uint(x) & 63)
				ev.visible = append(ev.visible, int32(x))
			}
			g = ev.nBase + x
		}
		gid[i] = int32(g)
	}
	if !grouped {
		return
	}
	groups := ev.nBase + ex.n
	if cap(ev.start) < groups+1 {
		ev.start = make([]int32, groups+1)
	}
	ev.start = ev.start[:groups+1]
	clear(ev.start)
	for _, g := range gid {
		ev.start[g+1]++
	}
	for g := 0; g < groups; g++ {
		ev.start[g+1] += ev.start[g]
	}
	// Place rows in cache order using start[g] as group g's cursor, then
	// shift the cursors (now group ends) back into starts.
	if cap(ev.order) < len(u) {
		ev.order = make([]int32, len(u))
	}
	ev.order = ev.order[:len(u)]
	for i, g := range gid {
		ev.order[ev.start[g]] = int32(i)
		ev.start[g]++
	}
	copy(ev.start[1:], ev.start[:groups])
	ev.start[0] = 0
}

// extraGroups is bucket's probe table over the keys of cache-only
// groups: open addressing on the high half of the group-key hash, a
// slot naming the group's first cached row + 1, its key donor (the
// group id is that row's). While bucket's first pass runs, ev.start[x]
// holds cache-only group x's hash half, which a probe compares before
// any key and the table places groups by when it grows. It stays at
// most three-quarters full and keeps its size across batches.
type extraGroups struct {
	n     int
	slots []int32       // donor row + 1; 0 = empty
	keys  []types.Value // the first storedExtraKeys groups' keys, k values each
	shown []uint64      // bit x: group x is already in visible
}

// storedExtraKeys bounds the cache-only groups whose key extra copies
// into ex.keys when it numbers them, so that a group with many cached
// rows compares them against the copy instead of re-reading its donor's
// key for each. The bound keeps the copies' charge fixed: where nearly
// every cache-only group is a single row (the Q18 shape: 18 146 groups
// over 18 155 cached rows) a copy per group would double the cache's
// memory and save no read.
const storedExtraKeys = 64

// extraKey returns cache-only group x's key, d being its donor: the
// copy in ex.keys, or d's key read into keyBuf (cachedKeyInto).
func (ev *snapEval) extraKey(x int, d int32) types.Row {
	if k := len(ev.keyBuf); x < storedExtraKeys {
		return ev.ex.keys[x*k : (x+1)*k : (x+1)*k]
	}
	ev.cachedKeyInto(ev.keyBuf, int(d))
	return ev.keyBuf
}

// reset empties the table for a rebuild over rows that need at most
// words bitmap words of groups.
func (ex *extraGroups) reset(words int) {
	ex.n = 0
	clear(ex.slots)
	clear(ex.keys) // drop the old keys' strings
	ex.keys = ex.keys[:0]
	if cap(ex.shown) < words {
		ex.shown = make([]uint64, words)
	}
	ex.shown = ex.shown[:words]
	clear(ex.shown)
}

// extra resolves the key staged in the table's keyRow (hash h, from
// cached row i) to a cache-only group, numbering it on first touch.
func (ev *snapEval) extra(gid []int32, h uint64, i int) int {
	ex := &ev.ex
	if 4*(ex.n+1) > 3*len(ex.slots) {
		ev.growExtra(gid)
	}
	t := ev.r.tab
	hi := uint32(h >> 32)
	mask := uint32(len(ex.slots) - 1)
	p := hi & mask
	for ; ex.slots[p] != 0; p = (p + 1) & mask {
		d := ex.slots[p] - 1
		x := int(gid[d]) - ev.nBase
		if uint32(ev.start[x]) != hi {
			continue
		}
		if types.KeyEqual(ev.extraKey(x, d), t.keyRow, t.cols) {
			return x
		}
	}
	ex.slots[p] = int32(i + 1)
	if ex.n < storedExtraKeys {
		ex.keys = append(ex.keys, t.keyRow[:len(t.cols)]...)
	}
	ev.start = append(ev.start, int32(hi))
	ex.n++
	return ex.n - 1
}

// findExtra returns the cache-only group whose key equals key (hash h),
// or -1, over the current bucket index. The hash halves are gone once
// bucket has sorted, so every key of the probe run is compared (a
// replica vector's fill finds a cache-only group this way, once per
// vector).
func (ev *snapEval) findExtra(key types.Row, h uint64) int {
	ex := &ev.ex
	if ex.n == 0 {
		return -1
	}
	mask := uint32(len(ex.slots) - 1)
	for p := uint32(h>>32) & mask; ex.slots[p] != 0; p = (p + 1) & mask {
		d := ex.slots[p] - 1
		x := int(ev.gid[d]) - ev.nBase
		if types.KeyEqual(ev.extraKey(x, d), key, keyCols(len(key))) {
			return x
		}
	}
	return -1
}

// growExtra doubles the probe table (from 64 slots), placing each group
// by its stored hash half.
func (ev *snapEval) growExtra(gid []int32) {
	ex := &ev.ex
	old := ex.slots
	ex.slots = make([]int32, max(64, 2*len(old)))
	mask := uint32(len(ex.slots) - 1)
	for _, d := range old {
		if d == 0 {
			continue
		}
		p := uint32(ev.start[int(gid[d-1])-ev.nBase]) & mask
		for ex.slots[p] != 0 {
			p = (p + 1) & mask
		}
		ex.slots[p] = d
	}
}

// donor returns the cached row carrying cache-only group x's key: its
// first row in cache order.
func (ev *snapEval) donor(x int) int32 { return ev.order[ev.start[ev.nBase+x]] }

// rowsOf returns group g's cached rows (cache order).
func (ev *snapEval) rowsOf(g int) []int32 {
	if len(ev.order) == 0 {
		return nil
	}
	return ev.order[ev.start[g]:ev.start[g+1]]
}

// numVisible is the number of groups eachVisible visits.
func (ev *snapEval) numVisible() int {
	if ev.global() {
		return 1
	}
	return ev.nBase + len(ev.visible)
}

// eachVisible loads, over axis columns [0,n), every group visible under
// the point bindings — table groups in insertion order, then
// cache-only groups in the cache order of their first passing row —
// and calls fn after each load. A global block has exactly one group
// (empty when nothing qualified yet). fn may load other groups.
func (ev *snapEval) eachVisible(n int, fn func()) {
	entries := ev.r.tab.entries
	if ev.global() {
		var en *onlineEntry
		if len(entries) > 0 {
			en = entries[0]
		}
		ev.load(en, nil, nil, n)
		fn()
		return
	}
	for g := 0; g < ev.nBase; g++ {
		ev.load(entries[g], nil, ev.rowsOf(g), n)
		ev.gi = g
		fn()
	}
	for k := 0; k < len(ev.visible); k++ {
		x := ev.visible[k]
		ev.load(nil, ev.extraKey(int(x), ev.donor(int(x))), ev.rowsOf(ev.nBase+int(x)), n)
		ev.gi = ev.nBase + int(x)
		fn()
	}
}

// loadKey loads the group with the given key over the whole axis and
// finalizes it under scale: a table group, a cache-only group (visible
// or not), or — both missing — an empty group without evidence
// anywhere.
func (ev *snapEval) loadKey(key types.Row, scale float64) {
	t := ev.r.tab
	cols := keyCols(len(key))
	h := key.HashKey(cols)
	if g := t.findIdx(h, key, cols); g >= 0 {
		var rows []int32
		if g < ev.nBase {
			rows = ev.rowsOf(g)
		}
		ev.load(t.entries[g], nil, rows, ev.width)
	} else if x := ev.findExtra(key, h); x >= 0 {
		ev.load(nil, ev.extraKey(x, ev.donor(x)), ev.rowsOf(ev.nBase+x), ev.width)
	} else {
		ev.load(nil, nil, nil, ev.width)
	}
	ev.finalize(scale)
}

// load positions the evaluator on one group — table entry en (nil when
// the table does not hold it; key then is a cache-only group's key, or
// nil) — and folds its cached rows (a global block's sole group owns the
// whole cache) into the scratch over axis columns [0,n).
func (ev *snapEval) load(en *onlineEntry, key types.Row, rows []int32, n int) {
	r := ev.r
	t := r.tab
	ev.en, ev.n = en, n
	ev.key = key // global, or a keyed probe that found nothing: nil
	if en != nil {
		ev.key = en.key
	}
	for j := 0; j < n; j++ {
		ev.touched[j] = false
	}
	W, T := ev.width, ev.width-1
	if t.banked {
		for a := range t.cltKinds {
			bw, bv := ev.accW[a*W:a*W+n], ev.accV[a*W:a*W+n]
			if en == nil {
				for j := range bw {
					bw[j], bv[j] = 0, 0
				}
				continue
			}
			bw[0], bv[0] = en.mainW[a], en.mainV[a]
			// Replica banks may be deduplicated across aggregates: read
			// through the stream aliases (the mains never are).
			copy(bw[1:], en.bankW[t.bankW(a)*T:])
			copy(bv[1:], en.bankV[t.bankV(a)*T:])
		}
	} else {
		for j := 0; j < n; j++ {
			ev.states[j] = nil
		}
	}
	all := ev.global()
	cnt := len(rows)
	if all {
		cnt = len(r.uncertain)
	}
	for k := 0; k < cnt; k++ {
		i := k
		if !all {
			i = int(rows[k])
		}
		u := &r.uncertain[i]
		pt := ev.pass[i>>6]&(1<<(uint(i)&63)) != 0
		// Trial column j reads weight lane j-1: derive the first n-1 lanes
		// straight into the weight scratch, which foldRow then masks.
		sampled := n > 1 && r.eng.weights(ev.wf[1:n], r.ts, u.ord, n-1) != nil
		if !pt && !sampled {
			continue
		}
		ev.foldRow(u, pt, sampled)
	}
}

// foldRow adds one cached row to the loaded group: weight 1 into column
// 0 when it passes under the point bindings, and its weight into every
// trial column whose bindings it passes under (sampled: load derived
// the weights into ev.wf[1:n]).
func (ev *snapEval) foldRow(u *uncertainRow, pt, sampled bool) {
	r := ev.r
	t := r.tab
	n, W := ev.n, ev.width
	// Aggregate inputs are parameter-free (the planner refuses nested
	// aggregates inside aggregate arguments): one evaluation serves every
	// column.
	if t.argCols == nil {
		t.argCols = make([]int, len(r.b.Aggs))
		for a := range r.b.Aggs {
			t.argCols[a] = colIdx(r.b.Aggs[a].Arg)
		}
	}
	// Where the encoding covers the cache, a banked block's column inputs
	// and the predicate's trial lanes read the row at its ordinal.
	env := &ev.env
	if env.ct != nil {
		env.seg, env.i = env.ct.Segment(u.ord)
	}
	for a := range r.b.Aggs {
		c := t.argCols[a]
		if t.banked && env.ordinal(c) {
			ev.argF[a], ev.argOK[a] = env.argAt(c, t.cltKinds[a] == cltCount)
			continue
		}
		var v types.Value
		if c >= 0 && c < len(u.row) {
			v = u.row[c]
		} else {
			ev.bare.Row = u.row
			v = r.b.Aggs[a].Arg.Eval(&ev.bare)
		}
		ev.argv[a] = v
		if t.banked {
			// Gate as State.Add would: COUNT folds any non-NULL input,
			// SUM/AVG fold numeric inputs.
			if t.cltKinds[a] == cltCount {
				ev.argF[a], ev.argOK[a] = 0, !v.IsNull()
			} else {
				ev.argF[a], ev.argOK[a] = v.AsFloat()
			}
		}
	}
	// Lanes [lo,hi): column 0 only when the row passes under the point
	// bindings, the trial columns only for subsampled rows. A masked
	// trial lane adds 0.0, which leaves its accumulator bit-identical to
	// skipping it (the banked fold's own invariant). The mask multiplies
	// each weight by its lane's pass factor, without a branch on the
	// Poisson zeros or the predicate: a lane is touched, and the row
	// hits, where the product is nonzero (weights are non-negative, so
	// their sum is nonzero exactly when one of them is).
	lo, hi := 1, 1
	if pt {
		lo = 0
		ev.wf[0] = 1
		ev.touched[0] = true
	}
	hit := pt
	if sampled {
		hi = n
		tri := ev.rowTri(u.row, 1, n)[1:n]
		wf, touched := ev.wf[1:n], ev.touched[1:n]
		touched = touched[:len(wf)]
		var sum float64
		for j := range tri {
			x := wf[j] * passFactor[tri[j]&3]
			wf[j] = x
			touched[j] = touched[j] || x != 0
			sum += x
		}
		hit = hit || sum != 0
	}
	env.seg = nil
	if !hit {
		return
	}
	wf := ev.wf[lo:hi]
	if t.banked {
		for a, k := range t.cltKinds {
			if !ev.argOK[a] {
				continue
			}
			bw := ev.accW[a*W+lo : a*W+hi]
			if k == cltCount {
				for j, x := range wf {
					bw[j] += x
				}
				continue
			}
			f := ev.argF[a]
			bv := ev.accV[a*W+lo : a*W+hi]
			for j, x := range wf {
				bw[j] += x
				bv[j] += f * x
			}
		}
		return
	}
	for j, x := range wf {
		if x == 0 {
			continue
		}
		st := ev.states[lo+j]
		if st == nil {
			st = ev.cloneBase(lo + j)
			ev.states[lo+j] = st
		}
		for a := range st {
			st[a].Add(ev.argv[a], x)
		}
	}
}

// passFactor is a trial lane's weight factor by its predicate byte: 1
// where the row passes (expr.TriTrue), else 0.
var passFactor = [4]float64{expr.TriTrue: 1}

// baseStates returns the table's own states of axis column j for the
// loaded group (nil when the table does not hold the group).
func (ev *snapEval) baseStates(j int) []agg.State {
	switch {
	case ev.en == nil:
		return nil
	case j == 0:
		return ev.en.main
	}
	return ev.en.reps[j-1]
}

func (ev *snapEval) cloneBase(j int) []agg.State {
	src := ev.baseStates(j)
	if src == nil {
		return newEntryStates(ev.r.b)
	}
	out := make([]agg.State, len(src))
	for a, s := range src {
		out[a] = s.Clone()
	}
	return out
}

// finalize turns the loaded group's banked accumulators into aggregate
// results over its loaded axis columns, as float lanes for the lowered
// programs and the post-row builders, and records scale for post.
// Non-banked blocks finalize per post row instead.
func (ev *snapEval) finalize(scale float64) {
	ev.scale = scale
	n := ev.n
	t := ev.r.tab
	if !t.banked {
		return
	}
	W := ev.width
	for a, k := range t.cltKinds {
		w, v := ev.accW[a*W:a*W+n], ev.accV[a*W:a*W+n]
		f, null := ev.env.slotF[a*W:a*W+n], ev.env.slotNull[a*W:a*W+n]
		for j := range n {
			switch {
			case k == cltCount:
				f[j], null[j] = w[j]*scale, false
			case w[j] == 0:
				f[j], null[j] = 0, true
			case k == cltSum:
				f[j], null[j] = v[j]*scale, false
			default: // cltAvg
				f[j], null[j] = v[j]/w[j], false
			}
		}
	}
}

// visibleAtPoint reports whether the loaded group exists under the
// point bindings.
func (ev *snapEval) visibleAtPoint() bool {
	return ev.en != nil || ev.touched[0] || ev.global()
}

// evidence reports, per loaded trial t, whether the loaded group counts
// in axis column 1+t: its table entry has subsampled tuples (ns > 0), a
// cached row actually folded into it in that trial (touched), or the
// block is global. Only the replica readers ask.
func (ev *snapEval) evidence() []bool {
	live := ev.live[:ev.n-1]
	if (ev.en != nil && ev.en.ns > 0) || ev.global() {
		for t := range live {
			live[t] = true
		}
	} else {
		copy(live, ev.touched[1:ev.n])
	}
	return live
}

// post writes the loaded group's post-aggregate row
// [keys..., results...] of axis column j into buf (finalize must have
// covered j).
func (ev *snapEval) post(j int, buf types.Row) types.Row {
	buf = append(buf[:0], ev.key...)
	if ev.r.tab.banked {
		W := ev.width
		for a := range ev.r.b.Aggs {
			if ev.env.slotNull[a*W+j] {
				buf = append(buf, types.Null)
			} else {
				buf = append(buf, types.NewFloat(ev.env.slotF[a*W+j]))
			}
		}
		return buf
	}
	st := ev.states[j]
	if st == nil {
		if st = ev.baseStates(j); st == nil {
			st = newEntryStates(ev.r.b)
		}
	}
	for _, s := range st {
		buf = append(buf, s.Result(ev.scale))
	}
	return buf
}

// outputReps is the replica reader after the select expression: select
// column c of the loaded group in each loaded trial column j — NULL
// where the group has no evidence, else the column's value, from the
// lowered lanes when the column is lowered and through the interpreter
// over the trial's post row otherwise, with a numeric deviation from
// point shrunk by √p. It writes trial j's value into dst[j-1] when dst
// is given, and otherwise appends the numeric values, in trial order,
// to vals (the form confidence intervals read) and returns it. post is
// the group's point post-aggregate row; finalize must have run.
func (ev *snapEval) outputReps(c int, post types.Row, point types.Value, dst []types.Value, vals []float64) []float64 {
	n := ev.n
	rl := repRule{sqrtP: ev.r.ts.sqrtP}
	rl.pf, rl.shrink = point.AsFloat()
	rl.shrink = rl.shrink && rl.sqrtP < 1
	var lanes []float64
	var null []bool
	lowered := false
	if sel := ev.sel[c]; sel != nil {
		ev.env.row = post
		lanes, null, lowered = sel.num(&ev.env, 1, n)
	}
	live := ev.evidence()
	if lowered {
		for t, ok := range live {
			f, none := rl.apply(lanes[1+t], !ok || null[1+t])
			switch {
			case dst == nil:
				if !none {
					vals = append(vals, f)
				}
			case none:
				dst[t] = types.Null
			default:
				dst[t] = types.NewFloat(f)
			}
		}
		return vals
	}
	ctxs, se := ev.ctxs.axis(n), ev.r.b.Select[c]
	for t, ok := range live {
		v := types.Null
		if ok {
			ev.trRow = ev.post(1+t, ev.trRow)
			ctxs[1+t].Row = ev.trRow
			v = rl.value(se.Eval(ctxs[1+t]))
		}
		if dst != nil {
			dst[t] = v
		} else if f, ok := v.AsFloat(); ok {
			vals = append(vals, f)
		}
	}
	return vals
}

// slotReps is the replica reader before HAVING: it applies the slot
// rules to the loaded group's post-aggregate slots in its loaded trial
// columns (finalize must have run) and returns, per trial t, whether the
// group has evidence in axis column 1+t. A banked block's lanes are
// adjusted in place, and the adjusted key row is left as the lowered
// programs' row (env.row); slotRow reads a whole trial row.
func (ev *snapEval) slotReps() []bool {
	n, sqrtP := ev.n, ev.r.ts.sqrtP
	// Deviations shrink about the point post row, which a group has only
	// when it is visible at the point.
	have := sqrtP < 1 && ev.visibleAtPoint()
	if have {
		ev.ptRow = ev.post(0, ev.ptRow)
	}
	for c := range ev.rules {
		rl := &ev.rules[c]
		rl.pf, rl.shrink, rl.sqrtP = 0, false, sqrtP
		if have {
			rl.pf, rl.shrink = ev.ptRow[c].AsFloat()
		}
	}
	nKeys := len(ev.r.b.GroupBy)
	ev.keyRep = ev.keyRep[:0]
	for c := 0; c < nKeys && c < len(ev.key); c++ {
		ev.keyRep = append(ev.keyRep, ev.rules[c].value(ev.key[c]))
	}
	ev.env.row = ev.keyRep
	if ev.r.tab.banked {
		W := ev.width
		for a := range ev.r.b.Aggs {
			if rl := ev.rules[nKeys+a]; rl.zero || rl.shrink {
				f, null := ev.env.slotF[a*W:a*W+n], ev.env.slotNull[a*W:a*W+n]
				for j := 1; j < n; j++ {
					f[j], null[j] = rl.apply(f[j], null[j])
				}
			}
		}
	}
	return ev.evidence()
}

// slotRow returns the loaded group's post-aggregate row in trial column
// j under the slot rules (slotReps must have run): a banked block's from
// its adjusted lanes, another's from its trial states. The row is
// scratch, valid until the next call.
func (ev *snapEval) slotRow(j int) types.Row {
	ev.trRow = ev.post(j, ev.trRow)
	copy(ev.trRow, ev.keyRep)
	if !ev.r.tab.banked {
		for c := len(ev.keyRep); c < len(ev.trRow); c++ {
			ev.trRow[c] = ev.rules[c].value(ev.trRow[c])
		}
	}
	return ev.trRow
}

// repRule is the replica readers' rule for one column: an empty
// SUM/COUNT slot (zero; slots only) carries zero mass, and a deviation
// from a numeric point pf shrinks by sqrtP (shrink).
type repRule struct {
	pf, sqrtP    float64
	shrink, zero bool
}

// apply adjusts one replica value f (null: NULL).
func (rl repRule) apply(f float64, null bool) (float64, bool) {
	if null {
		if !rl.zero {
			return f, true
		}
		f = 0
	}
	if rl.shrink {
		f = rl.pf + (f-rl.pf)*rl.sqrtP
	}
	return f, false
}

// value is apply over a value: a non-numeric value, and a numeric one
// that does not shrink, pass unchanged.
func (rl repRule) value(v types.Value) types.Value {
	f, ok := v.AsFloat()
	if ok && !rl.shrink || !ok && !v.IsNull() {
		return v
	}
	if f, null := rl.apply(f, !ok); !null {
		return types.NewFloat(f)
	}
	return v
}
