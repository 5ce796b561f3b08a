package core

import (
	"fluodb/internal/agg"
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
//     indexes, each row's group resolved through the group table's own
//     hash probe; groups the table does not hold yet (every row of
//     theirs is still uncertain) are numbered after the table's. The
//     same pass records which rows pass uncertainWhere under the point
//     bindings.
//   - group at a time: a group's accumulators over the whole axis
//     (column 0 = main state, column 1+j = replica j) are seeded from
//     its table entry into one reusable scratch, and its rows are
//     folded in cache order.
//   - trial sweep: per row, the aggregate inputs and every parameter
//     key are resolved once (trialvec.go); the axis is then swept with
//     weights[j]·repW masked by the per-trial truth of uncertainWhere.
//
// Each (group, column) cell therefore still sums "base, then its
// uncertain rows in cache order", and a masked lane adds 0.0, which
// leaves an accumulator bit-identical to skipping it: results equal the
// per-trial copy-on-write overlays this replaced bit for bit (pinned by
// TestSnapshotMatchesOverlayOracle).
//
// Rules every consumer relies on:
//
//   - a group counts in trial j only with bootstrap evidence there: its
//     table entry has subsampled tuples (ns > 0) or a cached row
//     actually folded into it in trial j (touched); global blocks
//     always count;
//   - a group absent from the table is visible (iterated, emitted) only
//     if a cached row passes under the point bindings, ordered by the
//     cache position of its first passing row;
//   - with no cached rows, accumulators are the table's banks as is;
//   - all of it is a pure function of the runner's table and cache and
//     of the bindings it depends on, which are fixed from the runner's
//     feed to the next mini-batch: the bucket index is rebuilt only
//     after invalidate.
type snapEval struct {
	r     *blockRunner
	width int // axis width: 1 + Trials

	// Lowered programs over the axis (nil = interpret), compiled once.
	compiled bool
	where    tvBool  // uncertainWhere
	having   tvBool  // HAVING over the post-aggregate layout
	sel      []tvNum // SELECT columns over the post-aggregate layout
	progMem  int64
	env      tvEnv
	ctxs     *ctxSet
	bare     expr.Ctx // parameter-free context (group keys, aggregate inputs)

	// Bucket index over r.uncertain. Ids below nBase are table groups (the
	// entry's insertion rank); ids from nBase up are cache-only groups
	// in first-touch order, whose key lives in their first cached row.
	valid   bool
	nBase   int
	order   []int32  // row indexes, grouped; cache order within a group
	start   []int32  // group g owns order[start[g]:start[g+1]]
	pass    []uint64 // bit i: row i passes uncertainWhere under the point bindings
	visible []int32  // cache-only groups visible under the point bindings, by first passing row
	// probe maps canonical key strings to group ids for the groups that
	// own cached rows; built on the first keyed load.
	probe map[string]int32

	// The loaded group.
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
}

// eval returns the runner's evaluator, creating it on first use.
func (r *blockRunner) eval() *snapEval {
	if r.ev == nil {
		w := 1 + r.eng.opt.Trials
		na := len(r.b.Aggs)
		ev := &snapEval{r: r, width: w, ctxs: &ctxSet{b: r.eng.bind}}
		ev.env = tvEnv{bind: r.eng.bind, stride: w,
			slotF: make([]float64, na*w), slotNull: make([]bool, na*w)}
		ev.accW, ev.accV = make([]float64, na*w), make([]float64, na*w)
		ev.touched, ev.wf, ev.mask = make([]bool, w), make([]float64, w), make([]uint8, w)
		ev.argv, ev.argF, ev.argOK = make([]types.Value, na), make([]float64, na), make([]bool, na)
		ev.keyBuf = make(types.Row, len(r.b.GroupBy))
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
	return 4*int64(cap(ev.order)+cap(ev.start)+cap(ev.visible)) + 8*int64(cap(ev.pass)) +
		8*int64(cap(ev.accW)+cap(ev.accV)+cap(ev.wf)+cap(ev.argF)+cap(ev.env.slotF)) +
		int64(cap(ev.env.slotNull)+cap(ev.touched)+cap(ev.mask)+cap(ev.argOK)) +
		rowValueBytes*int64(cap(ev.argv)+cap(ev.keyBuf)) +
		9*int64(ev.width*len(ev.env.scal)) + ev.progMem
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
	ev.progMem = c.mem
}

// prepare makes the bucket index and the scalar lanes current.
func (ev *snapEval) prepare() {
	if ev.valid {
		return
	}
	ev.compile()
	ev.env.refreshScalars(ev.width)
	ev.ctxs.refresh()
	ev.bucket()
	ev.valid = true
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
	if where == nil {
		// Only a restored checkpoint can cache a row without an uncertain
		// predicate to re-evaluate; it passes everywhere.
		for j := lo; j < hi; j++ {
			ev.mask[j] = expr.TriTrue
		}
		return ev.mask
	}
	ctxs := ev.ctxs.axis(hi)
	for j := lo; j < hi; j++ {
		ctxs[j].Row = row
		ev.mask[j] = triOf(where.Eval(ctxs[j]))
	}
	return ev.mask
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
// row, stable counting sort. Only the index proper is retained (and
// charged to the ledger); the per-row group ids and the probe table of
// cache-only groups are build-time scratch.
func (ev *snapEval) bucket() {
	r := ev.r
	u := r.uncertain
	t := r.tab
	ev.nBase = len(t.entries)
	ev.probe = nil
	ev.order, ev.start, ev.visible = ev.order[:0], ev.start[:0], ev.visible[:0]
	words := (len(u) + 63) / 64
	if cap(ev.pass) < words {
		ev.pass = make([]uint64, words)
	}
	ev.pass = ev.pass[:words]
	for i := range ev.pass {
		ev.pass[i] = 0
	}
	if len(u) == 0 {
		return
	}
	grouped := !ev.global()
	var gid []int32
	var ex extraGroups
	if grouped {
		t.initKeyScratch(r.b)
		gid = make([]int32, len(u))
	}
	for i := range u {
		passes := ev.rowTri(u[i].row, 0, 1)[0] == expr.TriTrue
		if passes {
			ev.pass[i>>6] |= 1 << (uint(i) & 63)
		}
		if !grouped {
			continue
		}
		ev.groupKeyInto(t.keyRow, u[i].row)
		h := t.keyRow.HashKey(t.cols)
		g := t.findIdx(h, t.keyRow, t.cols)
		if g < 0 {
			x := ev.extra(&ex, gid, h, i)
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
	for i := range ev.start {
		ev.start[i] = 0
	}
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
// groups: open addressing on the group-key hash, a slot naming the
// group's first cached row (its key donor; the group id is that row's).
type extraGroups struct {
	n     int
	slots []int32  // donor row + 1; 0 = empty
	shown []uint64 // bit x: group x is already in visible
}

// extra resolves the key staged in the table's keyRow (hash h, from
// cached row i) to a cache-only group, numbering it on first touch.
// Keys are compared against the donor row: no key is copied.
func (ev *snapEval) extra(ex *extraGroups, gid []int32, h uint64, i int) int {
	if ex.slots == nil {
		// At most one group per row not yet placed; sized once, below 7/8
		// load.
		size := 16
		for size*7 < (len(gid)-i)*8 {
			size *= 2
		}
		ex.slots = make([]int32, size)
		ex.shown = make([]uint64, (len(gid)-i+63)/64)
	}
	t := ev.r.tab
	mask := uint64(len(ex.slots) - 1)
	p := h & mask
	for ex.slots[p] != 0 {
		d := ex.slots[p] - 1
		ev.groupKeyInto(ev.keyBuf, ev.r.uncertain[d].row)
		if types.KeyEqual(ev.keyBuf, t.keyRow, t.cols) {
			return int(gid[d]) - ev.nBase
		}
		p = (p + 1) & mask
	}
	ex.slots[p] = int32(i + 1)
	ex.n++
	return ex.n - 1
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
		ev.load(en, -1, nil, n)
		fn()
		return
	}
	for g := 0; g < ev.nBase; g++ {
		ev.load(entries[g], -1, ev.rowsOf(g), n)
		fn()
	}
	for k := 0; k < len(ev.visible); k++ {
		x := ev.visible[k]
		ev.load(nil, ev.donor(int(x)), ev.rowsOf(ev.nBase+int(x)), n)
		fn()
	}
}

// loadKey loads the group with the given canonical key string over axis
// columns [0,n): a table group, a cache-only group (visible or not),
// or — both missing — an empty group without evidence anywhere.
func (ev *snapEval) loadKey(key string, n int) {
	en := ev.r.tab.m[key]
	if len(ev.order) == 0 {
		ev.load(en, -1, nil, n)
		return
	}
	if ev.probe == nil {
		ev.probe = make(map[string]int32)
		cols := ev.r.tab.cols
		for g := 0; g < len(ev.start)-1; g++ {
			if ev.start[g] == ev.start[g+1] {
				continue
			}
			if g < ev.nBase {
				ev.probe[ev.r.tab.entries[g].skey] = int32(g)
				continue
			}
			ev.groupKeyInto(ev.keyBuf, ev.r.uncertain[ev.donor(g-ev.nBase)].row)
			ev.probe[ev.keyBuf.KeyString(cols)] = int32(g)
		}
	}
	g, ok := ev.probe[key]
	switch {
	case !ok:
		ev.load(en, -1, nil, n)
	case int(g) < ev.nBase:
		ev.load(en, -1, ev.rowsOf(int(g)), n)
	default:
		ev.load(nil, ev.donor(int(g)-ev.nBase), ev.rowsOf(int(g)), n)
	}
}

// load positions the evaluator on one group — table entry en (nil when
// the table does not hold it; donor then names the cached row carrying
// its key, or -1) — and folds its cached rows (a global block's sole
// group owns the whole cache) into the scratch over axis columns [0,n).
func (ev *snapEval) load(en *onlineEntry, donor int32, rows []int32, n int) {
	r := ev.r
	t := r.tab
	ev.en, ev.n = en, n
	switch {
	case en != nil:
		ev.key = en.key
	case donor >= 0:
		ev.groupKeyInto(ev.keyBuf, r.uncertain[donor].row)
		ev.key = ev.keyBuf
	default:
		ev.key = ev.keyBuf[:0] // global, or a keyed probe that found nothing
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
		sampled := n > 1 && u.weights != nil
		if !pt && !sampled {
			continue
		}
		ev.foldRow(u, pt, sampled)
	}
}

// foldRow adds one cached row to the loaded group: weight 1 into column
// 0 when it passes under the point bindings, weights[j]·repW into every
// trial column whose bindings it passes under.
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
	for a := range r.b.Aggs {
		var v types.Value
		if c := t.argCols[a]; c >= 0 && c < len(u.row) {
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
	// skipping it (the banked fold's own invariant).
	lo, hi := 1, 1
	if pt {
		lo = 0
		ev.wf[0] = 1
		ev.touched[0] = true
	}
	hit := pt
	if sampled {
		hi = n
		tri := ev.rowTri(u.row, 1, n)
		for j := 1; j < n; j++ {
			ev.wf[j] = 0
			if w := u.weights[j-1]; w != 0 && tri[j] == expr.TriTrue {
				ev.wf[j] = float64(w) * r.invP
				ev.touched[j] = true
				hit = true
			}
		}
	}
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
// results over axis columns [lo,hi), as float lanes for the lowered
// programs and the post-row builders. Non-banked blocks finalize per
// post row instead.
func (ev *snapEval) finalize(scale float64, lo, hi int) {
	t := ev.r.tab
	if !t.banked {
		return
	}
	W := ev.width
	for a, k := range t.cltKinds {
		w, v := ev.accW[a*W:a*W+hi], ev.accV[a*W:a*W+hi]
		f, null := ev.env.slotF[a*W:a*W+hi], ev.env.slotNull[a*W:a*W+hi]
		for j := lo; j < hi; j++ {
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

// evidence reports whether the loaded group counts in axis column j ≥ 1.
func (ev *snapEval) evidence(j int) bool {
	return ev.touched[j] || (ev.en != nil && ev.en.ns > 0) || ev.global()
}

// skey returns the loaded group's canonical key string.
func (ev *snapEval) skey() string {
	if ev.en != nil {
		return ev.en.skey
	}
	return ev.key.KeyString(ev.r.tab.cols)
}

// post writes the loaded group's post-aggregate row
// [keys..., results...] of axis column j into buf (finalize must have
// covered j).
func (ev *snapEval) post(j int, scale float64, buf types.Row) types.Row {
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
		buf = append(buf, s.Result(scale))
	}
	return buf
}

// selectLanes evaluates select column c of the loaded group over axis
// columns [1,n) as float lanes (post is the group's point post-aggregate
// row; finalize must have covered the columns). It returns nil when the
// column is not lowered or refuses, and the caller interprets per trial.
func (ev *snapEval) selectLanes(c int, post types.Row, n int) ([]float64, []bool) {
	if ev.sel[c] == nil {
		return nil, nil
	}
	ev.env.row = post
	f, null, ok := ev.sel[c].num(&ev.env, 1, n)
	if !ok {
		return nil, nil
	}
	return f, null
}

// adjustSlots applies the set-block replica adjustment to the loaded
// group's finalized trial lanes [1,n): an empty extensive slot carries
// zero mass, and deviations from the point row shrink by √p (adjustRep,
// in float).
func (ev *snapEval) adjustSlots(post types.Row, havePost bool, extensive []bool, sqrtP float64, n int) {
	W := ev.width
	nKeys := len(ev.r.b.GroupBy)
	for a := range ev.r.b.Aggs {
		f, null := ev.env.slotF[a*W:a*W+n], ev.env.slotNull[a*W:a*W+n]
		var pf float64
		pok := false
		if havePost && sqrtP < 1 {
			pf, pok = post[nKeys+a].AsFloat()
		}
		for j := 1; j < n; j++ {
			if null[j] {
				if !extensive[nKeys+a] {
					continue
				}
				f[j], null[j] = 0, false
			}
			if pok {
				f[j] = pf + (f[j]-pf)*sqrtP
			}
		}
	}
}
