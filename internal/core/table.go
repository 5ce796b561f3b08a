package core

import (
	"fmt"
	"unsafe"

	"fluodb/internal/agg"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/types"
)

// The online group table is an open-addressing hash table keyed by the
// group-by row itself (types.Row.HashKey + types.KeyEqual): no lookup
// materializes a canonical key string. A group's insertion rank is its
// identity for everything downstream — snapshot evaluation's bucket
// index and the parameter bindings' dense arrays (bindings.go) — so the
// table keeps no string-keyed view.
//
// For blocks whose aggregates are all CLT-estimable (SUM/COUNT/AVG,
// non-DISTINCT — the overwhelmingly common case), the per-trial
// bootstrap replicas are kept as two flat float banks laid out
// [agg][trial] instead of Trials×Aggs interface-dispatched states: the
// trial fold becomes a branch-light float loop and group creation stops
// allocating Trials state sets. Blocks with any other aggregate
// (MIN/MAX, STDDEV, quantiles, DISTINCT, UDAFs) keep the generic
// per-trial State sets.

// onlineEntry is one group's incremental state: the main aggregate
// states plus per-trial bootstrap replicas (banked floats or generic
// state sets).
type onlineEntry struct {
	key  types.Row
	hash uint64      // HashKey of key (cached for probing and rehash)
	main []agg.State // nil when the table is banked
	// mainW/mainV are the banked main accumulators (same per-kind
	// semantics as bankW/bankV, weight 1 per tuple), so the
	// deterministic fold skips the per-aggregate interface dispatch.
	mainW []float64
	mainV []float64
	reps  [][]agg.State // [trial][agg]; nil when the table is banked
	// bankW/bankV are the banked replica accumulators, indexed
	// [agg*trials + trial]. Per aggregate kind:
	//   COUNT: bankW = Σ w/p over non-NULL inputs (bankV unused)
	//   SUM:   bankW = Σ w/p, bankV = Σ v·w/p over numeric inputs
	//   AVG:   same sums as SUM; result is bankV/bankW
	// bankW > 0 ⟺ the replica has evidence (weights are positive).
	bankW []float64
	bankV []float64
	// n counts deterministically folded tuples; groups below the
	// minimum-support threshold never commit deterministic decisions
	// (their bootstrap ranges are too unreliable).
	n int
	// ns counts folded tuples inside the bootstrap subsample. A group
	// with ns == 0 has no replica evidence: its replica states are
	// structurally present but empty, and must not be read as values.
	ns int
	// clt holds per-aggregate Welford moments for closed-form variation
	// ranges (nil when the block has no CLT-estimable aggregate).
	clt []cltAcc
}

// onlineTable maps group keys to online entries, preserving insertion
// order for deterministic output.
type onlineTable struct {
	entries []*onlineEntry
	// slots holds 1-based indexes into entries (0 = empty), power-of-two
	// sized, linear probing. Kept below 7/8 load.
	slots []int32
	mask  uint64
	// free holds a stage table's recycled entries: stage tables
	// (worker-private, merged into a runner table after every batch)
	// recycle theirs across batches (recycle).
	free []*onlineEntry
	// gen counts recycles: an entry pointer resolved from this table is
	// valid while gen is unchanged (the columnar group memo keys its
	// lifetime on it, colScratch.bindMemo).
	gen uint64

	trials   int
	cltKinds []cltKind // per-aggregate CLT class (shared with the runner)
	banked   bool      // every aggregate is CLT-estimable → float banks
	// bankOfW/bankOfV redirect per-aggregate replica-bank reads to the
	// aggregate that owns the physical stream (nil = identity). Two
	// aggregates over the same plain column receive bit-identical bank
	// additions (COUNT/SUM/AVG all add Σ w/p to W; SUM/AVG both add
	// Σ v·w/p to V), so the columnar fold writes each distinct stream
	// once and reads resolve through these aliases. The row-oriented
	// fold keeps writing every aggregate's cells — twin cells then carry
	// redundant (identical) data, which aliased reads simply ignore —
	// so mixed row/columnar feeding stays consistent. Installed only
	// when the columnar plan proves the streams identical (plain clean
	// columns; see colPlan bank aliasing).
	bankOfW []int
	bankOfV []int
	// mom is the sparse moment storage of the groups whose replica lanes
	// the feed in progress draws from batch moments (moment.go); nil
	// until a banked table's first feed.
	mom *momentSide
	// scratch buffers for per-tuple group-key evaluation (the engine is
	// single-threaded per table).
	keyRow types.Row
	cols   []int
	// gbCols/argCols hold the source column index when a group-by
	// expression / aggregate argument is a plain column reference
	// (-1 otherwise), so the per-tuple evaluation skips the interface
	// dispatch in the overwhelmingly common case.
	gbCols  []int
	argCols []int
	// bytes is the resource-ledger charge: bytes pinned by this table's
	// probe slots and entry-owned arrays (including free-listed recycled
	// entries, whose backing arrays stay live). Charged only where
	// allocations happen — fresh newEntry, grow — never on the per-tuple
	// hit path; merge transfers the worker's charge to the adopter.
	bytes int64
}

// newOnlineTable builds a runner's or a worker stage's group table (a
// stage's entries are recycled batch to batch via recycle()).
func newOnlineTable(trials int) *onlineTable {
	return &onlineTable{trials: trials}
}

// colIdx returns the source column index of a plain column reference,
// or -1 when the expression needs full evaluation.
func colIdx(x expr.Expr) int {
	if c, ok := x.(*expr.Col); ok && c.Idx >= 0 {
		return c.Idx
	}
	return -1
}

// configure installs the runner's aggregate classification. banked
// requires every aggregate to be CLT-estimable.
func (t *onlineTable) configure(cltKinds []cltKind) {
	t.cltKinds = cltKinds
	t.banked = true
	for _, k := range cltKinds {
		if k == cltNone {
			t.banked = false
			break
		}
	}
}

func newEntryStates(b *plan.Block) []agg.State {
	out := make([]agg.State, len(b.Aggs))
	for i := range b.Aggs {
		s, err := b.Aggs[i].NewState()
		if err != nil {
			panic(fmt.Sprintf("core: agg state: %v", err)) // validated at plan time
		}
		out[i] = s
	}
	return out
}

func (t *onlineTable) newEntry(b *plan.Block, key types.Row, hash uint64) *onlineEntry {
	if n := len(t.free); n > 0 {
		// Recycled (banked-only, see recycle) entry: zero the
		// accumulators, take over the key. The bank slices keep their
		// backing arrays — this is the cross-batch allocation the stage
		// tables exist to avoid.
		e := t.free[n-1]
		t.free = t.free[:n-1]
		if cap(e.key) >= len(key) {
			e.key = e.key[:len(key)]
			copy(e.key, key)
		} else {
			e.key = key.Clone()
		}
		e.hash = hash
		for i := range e.mainW {
			e.mainW[i], e.mainV[i] = 0, 0
		}
		for i := range e.bankW {
			e.bankW[i], e.bankV[i] = 0, 0
		}
		for i := range e.clt {
			e.clt[i] = cltAcc{}
		}
		e.n, e.ns = 0, 0
		return e
	}
	e := &onlineEntry{key: key.Clone(), hash: hash}
	t.bytes += entryHeaderBytes + int64(len(key))*rowValueBytes
	if t.banked {
		na := len(b.Aggs)
		mw := make([]float64, 2*na)
		e.mainW, e.mainV = mw[:na:na], mw[na:]
		n := na * t.trials
		e.bankW = make([]float64, n)
		e.bankV = make([]float64, n)
		t.bytes += 8 * int64(2*na+2*n)
	} else {
		e.main = newEntryStates(b)
		e.reps = make([][]agg.State, t.trials)
		for j := range e.reps {
			e.reps[j] = newEntryStates(b)
		}
		// Generic agg.States are heap objects of aggregate-specific
		// shape; charge a flat estimate per state rather than walking
		// every implementation.
		t.bytes += int64(len(b.Aggs)*(1+t.trials)) * genericStateBytes
	}
	for _, k := range t.cltKinds {
		if k != cltNone {
			e.clt = make([]cltAcc, len(b.Aggs))
			t.bytes += int64(len(b.Aggs)) * cltAccBytes
			break
		}
	}
	return e
}

// Resource-ledger sizing constants for group-table entries. The bank
// arrays are charged exactly (capacity × 8); these cover the fixed
// per-entry overhead and the opaque generic states.
const (
	entryHeaderBytes  = int64(unsafe.Sizeof(onlineEntry{}))
	rowValueBytes     = int64(unsafe.Sizeof(types.Value{}))
	cltAccBytes       = int64(unsafe.Sizeof(cltAcc{}))
	genericStateBytes = 64 // estimate: one small heap object + interface header
)

// find probes for an entry with the given hash whose key projection
// equals keyRow on cols; nil on miss.
func (t *onlineTable) find(hash uint64, keyRow types.Row, cols []int) *onlineEntry {
	if i := t.findIdx(hash, keyRow, cols); i >= 0 {
		return t.entries[i]
	}
	return nil
}

// findIdx is find returning the entry's position in entries (its
// insertion rank), or -1 on miss.
func (t *onlineTable) findIdx(hash uint64, keyRow types.Row, cols []int) int {
	if t.slots == nil {
		return -1
	}
	i := hash & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		e := t.entries[s-1]
		if e.hash == hash && types.KeyEqual(e.key, keyRow, cols) {
			return int(s - 1)
		}
		i = (i + 1) & t.mask
	}
}

// insert appends e to the entry list and links it into the probe table
// (the caller has verified the key is absent).
func (t *onlineTable) insert(e *onlineEntry) {
	if (len(t.entries)+1)*8 > len(t.slots)*7 {
		t.grow()
	}
	t.entries = append(t.entries, e)
	idx := int32(len(t.entries)) // 1-based
	i := e.hash & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = idx
}

func (t *onlineTable) grow() {
	n := len(t.slots) * 2
	if n < 16 {
		n = 16
	}
	t.bytes += 4 * int64(n-len(t.slots)) // old array is released
	t.slots = make([]int32, n)
	t.mask = uint64(n - 1)
	for i, e := range t.entries {
		j := e.hash & t.mask
		for t.slots[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = int32(i + 1)
	}
}

// initKeyScratch lazily sizes the group-key evaluation scratch.
func (t *onlineTable) initKeyScratch(b *plan.Block) {
	if t.cols == nil && len(b.GroupBy) > 0 {
		t.keyRow = make(types.Row, len(b.GroupBy))
		t.cols = make([]int, len(b.GroupBy))
		t.gbCols = make([]int, len(b.GroupBy))
		for i := range t.cols {
			t.cols[i] = i
			t.gbCols[i] = colIdx(b.GroupBy[i])
		}
	}
}

// entryCurrent resolves (creating if needed) the group entry for the key
// currently staged in t.keyRow: hash, probe, insert. Callers fill keyRow
// first (entry for the row path, the columnar memo on a miss).
func (t *onlineTable) entryCurrent(b *plan.Block) *onlineEntry {
	h := t.keyRow.HashKey(t.cols)
	if e := t.find(h, t.keyRow, t.cols); e != nil {
		return e
	}
	e := t.newEntry(b, t.keyRow, h)
	t.insert(e)
	return e
}

// entry returns (creating if needed) the group entry for the row in ctx.
// The steady-state hit path is allocation-free: key evaluation into a
// reused scratch row, hash, probe.
func (t *onlineTable) entry(b *plan.Block, ctx *expr.Ctx) *onlineEntry {
	t.initKeyScratch(b)
	row := ctx.Row
	for i, g := range b.GroupBy {
		if c := t.gbCols[i]; c >= 0 && c < len(row) {
			t.keyRow[i] = row[c]
		} else {
			t.keyRow[i] = g.Eval(ctx)
		}
	}
	return t.entryCurrent(b)
}

// fold adds the row in ctx into the main state (weight 1) and — when the
// tuple is in the bootstrap subsample (wf non-nil: its multiplicities
// pre-scaled by the 1/p inverse sampling weight, Engine.weights) — into
// each replica. A zero weight adds 0.0 to a banked replica, which is
// exact, so the bank folds are branch-free float loops.
func (t *onlineTable) fold(b *plan.Block, ctx *expr.Ctx, wf []float64) {
	e := t.entry(b, ctx)
	e.n++
	if wf != nil {
		e.ns++
	}
	if t.argCols == nil {
		t.argCols = make([]int, len(b.Aggs))
		for i := range b.Aggs {
			t.argCols[i] = colIdx(b.Aggs[i].Arg)
		}
	}
	if t.banked {
		// A moment-mode group adds the row's stream values to its batch
		// moments instead of its weights to the lanes (moment.go).
		var acc *momentAcc
		if wf != nil {
			acc = t.momentOf(e)
		}
		row := ctx.Row
		for i := range b.Aggs {
			var v types.Value
			if c := t.argCols[i]; c >= 0 && c < len(row) {
				v = row[c]
			} else {
				v = b.Aggs[i].Arg.Eval(ctx)
			}
			// Gate exactly as State.Add + cltAcc would: COUNT folds any
			// non-NULL input, SUM/AVG fold numeric inputs.
			var f float64
			var ok bool
			if t.cltKinds[i] == cltCount {
				if ok = !v.IsNull(); ok {
					e.mainW[i]++
					e.clt[i].add(1)
				}
			} else if f, ok = v.AsFloat(); ok {
				e.mainW[i]++
				e.mainV[i] += f
				e.clt[i].add(f)
			}
			switch {
			case acc != nil:
				t.mom.stageValue(i, f, ok)
			case wf != nil:
				t.foldBank(e, i, v, wf)
			}
		}
		if acc != nil {
			acc.add(t.mom.x)
		}
		return
	}
	for i := range b.Aggs {
		var v types.Value
		if c := t.argCols[i]; c >= 0 && c < len(ctx.Row) {
			v = ctx.Row[c]
		} else {
			v = b.Aggs[i].Arg.Eval(ctx)
		}
		e.main[i].Add(v, 1)
		if e.clt != nil && t.cltKinds[i] != cltNone && !v.IsNull() {
			switch t.cltKinds[i] {
			case cltCount:
				e.clt[i].add(1)
			default:
				if f, ok := v.AsFloat(); ok {
					e.clt[i].add(f)
				}
			}
		}
		for j, x := range wf {
			if x > 0 {
				e.reps[j][i].Add(v, x)
			}
		}
	}
}

// foldBank folds one aggregate input into the banked replicas, given
// the tuple's pre-scaled weights (Engine.weights). The add is gated
// exactly as the corresponding State.Add would gate it (COUNT skips
// NULLs, SUM/AVG skip non-numerics); a zero weight adds 0.0, which
// leaves the accumulator bit-identical to skipping it.
func (t *onlineTable) foldBank(e *onlineEntry, i int, v types.Value, wf []float64) {
	base := i * t.trials
	bw := e.bankW[base : base+len(wf)]
	if t.cltKinds[i] == cltCount {
		if v.IsNull() {
			return
		}
		for j, x := range wf {
			bw[j] += x
		}
		return
	}
	f, ok := v.AsFloat()
	if !ok {
		return
	}
	bv := e.bankV[base : base+len(wf)]
	for j, x := range wf {
		bw[j] += x
		bv[j] += f * x
	}
}

// bankW/bankV resolve aggregate i's physical replica-bank stream
// through the alias tables (identity when no aliasing is installed).
func (t *onlineTable) bankW(i int) int {
	if t.bankOfW == nil {
		return i
	}
	return t.bankOfW[i]
}

func (t *onlineTable) bankV(i int) int {
	if t.bankOfV == nil {
		return i
	}
	return t.bankOfV[i]
}

// mergeEntry folds a worker's group entry into the main entry. Both
// entries come from tables configured identically, so bank layouts
// match.
func (e *onlineEntry) mergeEntry(o *onlineEntry) {
	e.n += o.n
	e.ns += o.ns
	if e.mainW != nil {
		for i := range e.mainW {
			e.mainW[i] += o.mainW[i]
			e.mainV[i] += o.mainV[i]
		}
	} else {
		for i := range e.main {
			e.main[i].Merge(o.main[i])
		}
	}
	if e.bankW != nil {
		for i, w := range o.bankW {
			e.bankW[i] += w
		}
		for i, v := range o.bankV {
			e.bankV[i] += v
		}
	} else {
		for j := range e.reps {
			for i := range e.reps[j] {
				e.reps[j][i].Merge(o.reps[j][i])
			}
		}
	}
	if e.clt != nil && o.clt != nil {
		for i := range e.clt {
			e.clt[i].merge(o.clt[i])
		}
	}
}

// merge folds a worker stage table into t, a runner table, preserving
// t's insertion order for existing groups and appending new groups in
// the worker's order. Adopted entries (new groups moving wholesale into
// t) are nil'ed out of o so a following o.recycle() cannot hand them
// back out.
func (t *onlineTable) merge(o *onlineTable) {
	cols := t.cols
	if cols == nil {
		cols = o.cols // t may not have seen a tuple yet
	}
	// Transfer the worker's ledger charge wholesale: adopted entries now
	// live here, and o's retained arrays (slots, free list) were charged
	// once and will not be re-charged when recycle reuses them, so the
	// sum across tables stays exact.
	t.bytes += o.bytes
	o.bytes = 0
	for k, oe := range o.entries {
		e := t.find(oe.hash, oe.key, cols)
		if e == nil {
			t.insert(oe)
			o.entries[k] = nil
			continue
		}
		e.mergeEntry(oe)
		t.mergeMoments(e, o, oe)
	}
}

// recycle resets a stage table for the next batch: entries not adopted
// by the merge target return to the free list (banked tables only —
// generic agg.States have no reset), probe slots clear, the entry list
// truncates. The backing arrays all survive, so a steady-state batch
// creates no per-group garbage. Every entry pointer handed out before
// is stale afterwards, which the new generation records.
func (t *onlineTable) recycle() {
	t.gen++
	if t.mom != nil {
		t.mom.resetStage()
	}
	for i, e := range t.entries {
		if e != nil && t.banked {
			t.free = append(t.free, e)
		}
		t.entries[i] = nil
	}
	t.entries = t.entries[:0]
	for i := range t.slots {
		t.slots[i] = 0
	}
}
