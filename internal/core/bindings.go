package core

import (
	"math"
	"sort"

	"fluodb/internal/bootstrap"
	"fluodb/internal/expr"
	"fluodb/internal/types"
)

// scalarBinding is the online value of an uncorrelated scalar subquery.
type scalarBinding struct {
	point types.Value
	reps  []types.Value // one per bootstrap trial
	rng   paramRange
	// committed is the intersection of every variation range published
	// so far; escaping it is a range failure (§3.2).
	committed    bootstrap.Range
	hasCommitted bool
	epsBoost     float64 // widened after each failure to guarantee progress
}

// groupBinding is the online value of a correlated (per-group) scalar
// subquery, held in dense arrays by group id (pubKeys): point and rng
// are the latest publication's estimate and variation range per id,
// committed the decisions that survive republication. Replica vectors
// are materialized lazily (reps): with closed-form CLT ranges, per-trial
// group estimates are only needed for the (few) groups actually probed
// during snapshot error estimation.
type groupBinding struct {
	keys      pubKeys
	point     []types.Value
	rng       []paramRange
	committed commitSet[bootstrap.Range]
	reps      repSlab[types.Value]
	// scale is the publication's multiplicity, which its replica vectors
	// are computed under.
	scale    float64
	complete bool
	epsBoost float64
}

// lookup returns the published id of key, or -1.
func (g *groupBinding) lookup(key types.Row) int {
	if id := g.keys.id(key); id < len(g.point) {
		return id
	}
	return -1
}

// pointOf returns id's published estimate: NULL for -1, a probed id or
// a group its publication has not reached yet.
func (g *groupBinding) pointOf(id int) types.Value {
	if g.keys.published(id) && id < len(g.point) {
		return g.point[id]
	}
	return types.Null
}

// publish installs id's estimate and range (ids publish in order).
func (g *groupBinding) publish(id int, point types.Value, rng paramRange) {
	if id < len(g.point) {
		g.point[id], g.rng[id] = point, rng
		return
	}
	g.point, g.rng = append(g.point, point), append(g.rng, rng)
}

// setBinding is the online membership of an IN-subquery, by group id as
// groupBinding: point membership, its tri-state classification and the
// committed decisions. Per-trial membership vectors are materialized
// lazily (only the keys probed during snapshot error estimation pay for
// per-trial evaluation).
type setBinding struct {
	keys      pubKeys
	point     []bool
	tri       []tri
	committed commitSet[bool]
	reps      repSlab[bool]
	scale     float64
	complete  bool
	epsBoost  float64 // widened after each failure to guarantee progress
}

// lookup returns the published id of key, or -1.
func (s *setBinding) lookup(key types.Row) int {
	if id := s.keys.id(key); id < len(s.point) {
		return id
	}
	return -1
}

// member returns id's published point membership (false as pointOf
// reads NULL).
func (s *setBinding) member(id int) bool {
	return s.keys.published(id) && id < len(s.point) && s.point[id]
}

func (s *setBinding) publish(id int, point bool, t tri) {
	if id < len(s.point) {
		s.point[id], s.tri[id] = point, t
		return
	}
	s.point, s.tri = append(s.point, point), append(s.tri, t)
}

// begin starts a publication over ev's groups (DESIGN.md §8). A block
// with its own uncertain predicate can lose a group — one visible only
// through cached rows that have since been dropped — whose value must
// not outlive it, so such a block republishes from scratch (fresh);
// otherwise every id keeps its previous estimate until the loop
// overwrites it. Committed decisions persist either way.
func (g *groupBinding) begin(ev *snapEval, fresh bool) {
	g.keys.begin(ev)
	g.reps.next(ev.width - 1)
	if fresh {
		g.point, g.rng = g.point[:0], g.rng[:0]
	}
}

func (s *setBinding) begin(ev *snapEval, fresh bool) {
	s.keys.begin(ev)
	s.reps.next(ev.width - 1)
	if fresh {
		s.point, s.tri = s.point[:0], s.tri[:0]
	}
}

// pubKeys is the id space a correlated or membership binding publishes
// under — its producing block's snapshot-evaluation order: ids [0,nTab)
// are the block's table groups by insertion rank, found through the
// table's own hash index; ids from nTab up are the publication's
// visible cache-only groups, whose keys are copied into extra. A key
// resolves by types.Row.HashKey and types.KeyEqual, the group table's
// own identity (−0.0 and 0.0 are one key), never through a canonical
// key string. Table ranks are stable until a replay resets both sides,
// and a table group created after the publication (an eviction fold)
// is not published: its key still resolves to the cache-only id it was
// published under.
//
// A consumer reads the replica vector of any key, published or not
// (an invisible cache-only group has evidence in some trials): repID
// gives an unpublished key a probed id after the published ones, its
// key copied into extra behind theirs.
type pubKeys struct {
	tab   *onlineTable
	nTab  int
	nX    int // published cache-only keys: extra's first nX
	width int // key columns
	extra keyIndex
}

// begin resets the id space to ev's table groups.
func (p *pubKeys) begin(ev *snapEval) {
	p.tab, p.nTab, p.nX, p.width = ev.r.tab, ev.nBase, 0, len(ev.r.b.GroupBy)
	p.extra.reset()
}

// reset empties the id space (replay).
func (p *pubKeys) reset() {
	p.tab, p.nTab, p.nX = nil, 0, 0
	p.extra.reset()
}

// visit assigns the group ev just loaded its id — publications visit
// groups in id order — and returns its key and key hash.
func (p *pubKeys) visit(ev *snapEval) (id int, key types.Row, h uint64) {
	if en := ev.en; en != nil {
		return ev.gi, en.key, en.hash
	}
	h = ev.key.HashKey(keyCols(len(ev.key)))
	x := p.extra.add(ev.key, h)
	p.nX = x + 1
	return p.nTab + x, p.extra.keys[x], h
}

// find resolves key to its published or probed id, or -1, and returns
// its hash.
func (p *pubKeys) find(key types.Row) (int, uint64) {
	if len(key) != p.width {
		return -1, 0
	}
	cols := keyCols(len(key))
	h := key.HashKey(cols)
	if p.tab != nil {
		if r := p.tab.findIdx(h, key, cols); r >= 0 && r < p.nTab {
			return r, h
		}
	}
	if x := p.extra.find(key, h, cols); x >= 0 {
		return p.nTab + x, h
	}
	return -1, h
}

// published reports whether id names a published group.
func (p *pubKeys) published(id int) bool { return id >= 0 && id < p.nTab+p.nX }

// id resolves key to its published id, or -1.
func (p *pubKeys) id(key types.Row) int {
	if id, _ := p.find(key); p.published(id) {
		return id
	}
	return -1
}

// repID resolves key to the id its replica vector lives under: its
// published id, else a probed one (assigned on first probe). It is -1
// only before the first publication since a reset, when no vector can
// be evaluated.
func (p *pubKeys) repID(key types.Row) int {
	id, h := p.find(key)
	if id < 0 && p.tab != nil && len(key) == p.width {
		id = p.nTab + p.extra.add(key, h)
	}
	return id
}

// keyOf returns id's key.
func (p *pubKeys) keyOf(id int) types.Row {
	if id < p.nTab {
		return p.tab.entries[id].key
	}
	return p.extra.keys[id-p.nTab]
}

// identCols backs keyCols: the key columns of a row that is only a key.
var identCols = [...]int{0, 1, 2, 3, 4, 5, 6, 7}

// keyCols returns [0,n).
func keyCols(n int) []int {
	if n <= len(identCols) {
		return identCols[:n]
	}
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// keyString renders a key for trace events and violation reports.
func keyString(key types.Row) string { return key.KeyString(keyCols(len(key))) }

// keyIndex is an insertion-ordered set of copied keys with an
// open-addressing index over their hashes (at most half full).
type keyIndex struct {
	keys  []types.Row
	hash  []uint64
	slab  types.Row
	slots []int32 // entry + 1; 0 = empty
}

func (ix *keyIndex) reset() {
	ix.keys, ix.hash, ix.slab = ix.keys[:0], ix.hash[:0], ix.slab[:0]
	clear(ix.slots)
}

// find returns key's entry, or -1.
func (ix *keyIndex) find(key types.Row, h uint64, cols []int) int {
	if len(ix.keys) == 0 {
		return -1
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ix.slots[i] != 0; i = (i + 1) & mask {
		if x := ix.slots[i] - 1; ix.hash[x] == h && types.KeyEqual(ix.keys[x], key, cols) {
			return int(x)
		}
	}
	return -1
}

// add appends a copy of key (absent from the set) and returns its entry.
// A grown slab leaves earlier keys on the old array, which is never
// written again.
func (ix *keyIndex) add(key types.Row, h uint64) int {
	x := len(ix.keys)
	if 2*(x+1) > len(ix.slots) {
		ix.slots = make([]int32, max(16, 2*len(ix.slots)))
		mask := uint64(len(ix.slots) - 1)
		for k, hk := range ix.hash {
			i := hk & mask
			for ix.slots[i] != 0 {
				i = (i + 1) & mask
			}
			ix.slots[i] = int32(k + 1)
		}
	}
	ix.slab = append(ix.slab, key...)
	ix.keys = append(ix.keys, ix.slab[len(ix.slab)-len(key):len(ix.slab):len(ix.slab)])
	ix.hash = append(ix.hash, h)
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = int32(x + 1)
	return x
}

// commitSet holds a binding's committed decisions by table rank, which
// outlives every publication. A cache-only group commits only once its
// table is complete (an exact value always classifies); such a decision
// is held by a copy of its key in orphans until the key publishes as a
// table group, where it moves to the group's rank. An orphan that moved
// or was withdrawn stays in the index, dead (live false).
type commitSet[C any] struct {
	val     []C
	has     []bool
	orphans keyIndex
	oval    []C
	live    []bool
}

func (c *commitSet[C]) reset() {
	c.val, c.has = c.val[:0], c.has[:0]
	c.orphans.reset()
	c.oval, c.live = c.oval[:0], c.live[:0]
}

// orphan returns key's live orphan entry (h is its hash), or -1.
func (c *commitSet[C]) orphan(key types.Row, h uint64) int {
	if x := c.orphans.find(key, h, keyCols(len(key))); x >= 0 && c.live[x] {
		return x
	}
	return -1
}

// get returns id's committed decision (key and h are its key and hash).
func (c *commitSet[C]) get(p *pubKeys, id int, key types.Row, h uint64) (C, bool) {
	if id < p.nTab && id < len(c.has) && c.has[id] {
		return c.val[id], true
	}
	x := c.orphan(key, h)
	if x < 0 {
		var zero C
		return zero, false
	}
	v := c.oval[x]
	if id < p.nTab {
		c.live[x] = false
		c.set(p, id, key, h, v)
	}
	return v, true
}

// set commits v for id.
func (c *commitSet[C]) set(p *pubKeys, id int, key types.Row, h uint64, v C) {
	if id >= p.nTab {
		x := c.orphans.find(key, h, keyCols(len(key)))
		if x < 0 {
			x = c.orphans.add(key, h)
			c.oval, c.live = append(c.oval, v), append(c.live, true)
		}
		c.oval[x], c.live[x] = v, true
		return
	}
	var zero C
	for len(c.has) <= id {
		c.val, c.has = append(c.val, zero), append(c.has, false)
	}
	c.val[id], c.has[id] = v, true
}

// drop withdraws id's committed decision.
func (c *commitSet[C]) drop(p *pubKeys, id int, key types.Row, h uint64) {
	if id < p.nTab {
		if id < len(c.has) {
			c.has[id] = false
		}
		return
	}
	if x := c.orphan(key, h); x >= 0 {
		c.live[x] = false
	}
}

// committedKey is one committed decision of a binding, for audits.
type committedKey[C any] struct {
	key types.Row
	str string // key's canonical string
	id  int    // its published id, -1 when unpublished
	v   C
}

// all lists every committed decision in canonical key order.
func (c *commitSet[C]) all(p *pubKeys, lookup func(types.Row) int) []committedKey[C] {
	var out []committedKey[C]
	add := func(key types.Row, v C) {
		out = append(out, committedKey[C]{key: key, str: keyString(key), id: lookup(key), v: v})
	}
	for id, ok := range c.has {
		if ok {
			add(p.keyOf(id), c.val[id])
		}
	}
	for x, ok := range c.live {
		if ok {
			add(c.orphans.keys[x], c.oval[x])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].str < out[j].str })
	return out
}

// repSlab holds a binding's lazily materialized replica vectors for one
// publication: one reusable slab of trials lanes per probed id, stamped
// with the publication's epoch, so a new publication drops every vector
// without clearing or allocating.
type repSlab[T any] struct {
	trials int
	epoch  uint32
	tag    []uint32 // by id: the epoch its vector was filled in
	slot   []int32  // by id: its vector's slot in vals
	vals   []T
	used   int
}

// next starts a publication's epoch.
func (s *repSlab[T]) next(trials int) {
	s.trials, s.used = trials, 0
	if s.epoch++; s.epoch == 0 {
		clear(s.tag)
		s.epoch = 1
	}
}

// get returns id's vector, filling it on the epoch's first probe.
func (s *repSlab[T]) get(id int, fill func(int, []T)) []T {
	if id < 0 || fill == nil {
		return nil
	}
	for len(s.tag) <= id {
		s.tag, s.slot = append(s.tag, 0), append(s.slot, 0)
	}
	w := s.trials
	if s.tag[id] == s.epoch {
		o := int(s.slot[id]) * w
		return s.vals[o : o+w : o+w]
	}
	o := s.used * w
	if o+w > len(s.vals) {
		vals := make([]T, max(o+w, 2*len(s.vals)))
		copy(vals, s.vals[:o])
		s.vals = vals
	}
	dst := s.vals[o : o+w : o+w]
	clear(dst)
	slot := s.used
	s.used++
	fill(id, dst)
	s.tag[id], s.slot[id] = s.epoch, int32(slot)
	return dst
}

// bindings is the full parameter environment of a query during online
// execution.
type bindings struct {
	trials  int
	scalars []*scalarBinding
	groups  []*groupBinding
	sets    []*setBinding
	// noCommit disables deterministic classification entirely: ranges
	// publish as unknown and no decisions are committed. It is the
	// guaranteed-termination fallback when repeated range failures keep
	// recurring (every tuple stays uncertain; results remain correct,
	// delta maintenance just degrades to snapshot-time evaluation).
	noCommit bool
	// tracer (when non-nil) receives commit and range-failure events;
	// the paramIdx → plan-block-ID maps let events name the owning
	// block. Filled by core.New; reset() leaves them intact.
	tracer       *Tracer
	scalarBlocks []int
	groupBlocks  []int
	setBlocks    []int
	// groupFill/setFill compute a published id's replica vector into dst
	// (zeroed, one lane per trial) for each correlated and membership
	// binding (Engine.fillGroupReps, fillSetReps; nil when no engine
	// backs the bindings). They are kept off the binding structs, which
	// are all a classification environment reads: a worker's triEnv
	// never reaches the engine (see pool.go).
	groupFill []func(id int, dst []types.Value)
	setFill   []func(id int, dst []bool)
	// flips counts every contradiction of a previously committed
	// deterministic decision (range escape or membership flip) detected
	// in-flight, across the whole run: reset() deliberately does not
	// clear it, so the count survives failure-recovery replays. Exposed
	// as Metrics.DetFlips and the gola_deterministic_flips_total metric.
	flips int
}

// blockOf maps a parameter index to its plan block ID (0 when the map
// was never wired, e.g. bindings built directly in tests).
func blockOf(ids []int, idx int) int {
	if idx < len(ids) {
		return ids[idx]
	}
	return 0
}

// pfloat extracts a float for event payloads (0 for non-numeric).
func pfloat(v types.Value) float64 {
	f, _ := v.AsFloat()
	return f
}

func newBindings(nScalar, nGroup, nSet, trials int) *bindings {
	b := &bindings{
		trials:    trials,
		scalars:   make([]*scalarBinding, nScalar),
		groups:    make([]*groupBinding, nGroup),
		sets:      make([]*setBinding, nSet),
		groupFill: make([]func(int, []types.Value), nGroup),
		setFill:   make([]func(int, []bool), nSet),
	}
	for i := range b.scalars {
		b.scalars[i] = &scalarBinding{
			point:    types.Null,
			reps:     nullValues(trials),
			rng:      paramRange{status: rsUnknown},
			epsBoost: 1,
		}
	}
	for i := range b.groups {
		b.groups[i] = &groupBinding{epsBoost: 1}
	}
	for i := range b.sets {
		b.sets[i] = &setBinding{epsBoost: 1}
	}
	return b
}

func nullValues(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Null
	}
	return out
}

// reset clears estimates but preserves the epsBoost widening factors
// (replay after a failure must use wider ranges or it would fail again
// at the same batch). Group and set bindings truncate their arrays in
// place, keeping them and their slabs for the replayed prefix.
func (b *bindings) reset() {
	for i, s := range b.scalars {
		boost := s.epsBoost
		b.scalars[i] = &scalarBinding{
			point: types.Null, reps: nullValues(b.trials),
			rng: paramRange{status: rsUnknown}, epsBoost: boost,
		}
	}
	for _, g := range b.groups {
		g.keys.reset()
		g.point, g.rng = g.point[:0], g.rng[:0]
		g.committed.reset()
		g.reps.next(g.reps.trials)
		g.complete = false
	}
	for _, s := range b.sets {
		s.keys.reset()
		s.point, s.tri = s.point[:0], s.tri[:0]
		s.committed.reset()
		s.reps.next(s.reps.trials)
		s.complete = false
	}
}

// groupReps returns the replica vector of group param idx's id (a
// repID; nil for -1): the zero Value, NULL, in every trial without
// evidence.
func (b *bindings) groupReps(idx, id int) []types.Value {
	return b.groups[idx].reps.get(id, b.groupFill[idx])
}

// setReps returns the per-trial membership of set param idx's id (a
// repID; nil for -1).
func (b *bindings) setReps(idx, id int) []bool {
	return b.sets[idx].reps.get(id, b.setFill[idx])
}

// evalKeys evaluates a correlated parameter's key expressions over ctx
// into dst.
func evalKeys(dst types.Row, keys []expr.Expr, ctx *expr.Ctx) types.Row {
	dst = dst[:0]
	for _, k := range keys {
		dst = append(dst, k.Eval(ctx))
	}
	return dst
}

// ctxSet is a reusable set of expression contexts over the trial axis
// (ctxs[0] binds the point estimates, ctxs[1+j] bootstrap trial j) for
// the interpreter paths of snapshot-time evaluation. Contexts and lookup
// closures are built once and survive bindings.reset — the closures
// dereference the binding slot at call time (newPointCtx) — and
// refresh re-snapshots the by-value scalars, so a snapshot allocates no
// contexts. Each runner owns one set: evaluating a runner may re-enter
// the engine through a lazy replica lookup, but only into the runners it
// depends on, never into itself, so a context's Row is never clobbered
// under its user.
type ctxSet struct {
	b    *bindings
	ctxs []*expr.Ctx
}

// point returns the point-estimate context.
func (cs *ctxSet) point() *expr.Ctx { return cs.axis(1)[0] }

// axis returns the contexts of axis columns [0,n), building the missing
// ones.
func (cs *ctxSet) axis(n int) []*expr.Ctx {
	b := cs.b
	for col := len(cs.ctxs); col < n; col++ {
		if col == 0 {
			cs.ctxs = append(cs.ctxs, b.newPointCtx())
			cs.snapshotScalars(col)
			continue
		}
		j := col - 1
		ctx := &expr.Ctx{Scalars: make([]types.Value, len(b.scalars))}
		ctx.Groups = make([]expr.GroupLookup, len(b.groups))
		for i := range b.groups {
			var key types.Row
			ctx.Groups[i] = func(p *expr.GroupParam, c *expr.Ctx) (types.Value, bool) {
				key = evalKeys(key, p.Keys, c)
				vs := b.groupReps(i, b.groups[i].keys.repID(key))
				if vs == nil {
					return types.Null, false
				}
				return vs[j], true
			}
		}
		ctx.SetsFns = make([]expr.SetLookup, len(b.sets))
		for i := range b.sets {
			key := make(types.Row, 1)
			ctx.SetsFns[i] = func(x types.Value) bool {
				key[0] = x
				ms := b.setReps(i, b.sets[i].keys.repID(key))
				return ms != nil && ms[j]
			}
		}
		cs.ctxs = append(cs.ctxs, ctx)
		cs.snapshotScalars(col)
	}
	return cs.ctxs[:n]
}

// refresh re-snapshots the scalar bindings into every context built so
// far (once per evaluation window; see snapEval.prepare).
func (cs *ctxSet) refresh() {
	for col := range cs.ctxs {
		cs.snapshotScalars(col)
	}
}

func (cs *ctxSet) snapshotScalars(col int) {
	for i, s := range cs.b.scalars {
		if col == 0 {
			cs.ctxs[col].Scalars[i] = s.point
		} else {
			cs.ctxs[col].Scalars[i] = s.reps[col-1]
		}
	}
}

// newPointCtx builds a persistent point-estimate context. The group and
// set lookups resolve the row's key to its published id in the binding
// and read it at call time (publications and replays update the binding
// structs in place). They capture the binding structs alone, never b,
// so a classification environment does not reach the engine
// (groupFill). Scalar values are by-value snapshots; refreshTriEnv (or
// ctxSet.refresh) re-fills them before each use.
func (b *bindings) newPointCtx() *expr.Ctx {
	ctx := &expr.Ctx{Scalars: make([]types.Value, len(b.scalars))}
	ctx.Groups = make([]expr.GroupLookup, len(b.groups))
	for i, g := range b.groups {
		var key types.Row
		ctx.Groups[i] = func(p *expr.GroupParam, c *expr.Ctx) (types.Value, bool) {
			key = evalKeys(key, p.Keys, c)
			if id := g.lookup(key); id >= 0 {
				return g.point[id], true
			}
			return types.Null, false
		}
	}
	ctx.SetsFns = make([]expr.SetLookup, len(b.sets))
	for i, s := range b.sets {
		key := make(types.Row, 1)
		ctx.SetsFns[i] = func(x types.Value) bool {
			key[0] = x
			id := s.lookup(key)
			return id >= 0 && s.point[id]
		}
	}
	return ctx
}

// newTriEnv builds a persistent interval-semantics environment for
// tuple classification — one per goroutine that classifies (the
// controller's, Engine.triEnv; one per pool worker): group/set lookups
// resolve a key to its published id in the live binding structs (never
// b, as newPointCtx), the scalar snapshots are filled by refreshTriEnv
// before each use.
func (b *bindings) newTriEnv() *triEnv {
	te := &triEnv{pointCtx: b.newPointCtx()}
	te.scalarRanges = make([]paramRange, len(b.scalars))
	te.groupRanges = make([]func(types.Row) paramRange, len(b.groups))
	for i, g := range b.groups {
		te.groupRanges[i] = func(key types.Row) paramRange {
			if id := g.lookup(key); id >= 0 {
				return g.rng[id]
			}
			if g.complete {
				// Missing group on a fully-consumed table: the nested
				// aggregate is NULL for this key, so predicates fail.
				return paramRange{status: rsNull}
			}
			return paramRange{status: rsUnknown}
		}
	}
	te.setTri = make([]func(types.Row) tri, len(b.sets))
	for i, s := range b.sets {
		te.setTri[i] = func(key types.Row) tri {
			if id := s.lookup(key); id >= 0 {
				return s.tri[id]
			}
			if s.complete {
				return triFalse
			}
			return triUnknown
		}
	}
	return te
}

// refreshTriEnv re-snapshots the by-value state of a triEnv —
// scalar points and variation ranges — from the current bindings.
// Everything else in the environment reads the live bindings at call
// time and needs no refresh.
func (b *bindings) refreshTriEnv(te *triEnv) {
	for i, s := range b.scalars {
		te.scalarRanges[i] = s.rng
		te.pointCtx.Scalars[i] = s.point
	}
}

// newPointEnv builds newTriEnv's point-valued counterpart, the snapshot
// point pass's environment (snapEval.bucket): every parameter's range
// is its point estimate (pointParam), a key the binding did not publish
// reads NULL, and a set key is its point membership. A row the
// environment decides is then decided as the interpreter does under the
// point bindings. refreshPointEnv fills the scalars before each use.
func (b *bindings) newPointEnv() *triEnv {
	te := &triEnv{pointCtx: b.newPointCtx()}
	te.scalarRanges = make([]paramRange, len(b.scalars))
	te.groupRanges = make([]func(types.Row) paramRange, len(b.groups))
	for i, g := range b.groups {
		te.groupRanges[i] = func(key types.Row) paramRange {
			return pointParam(g.pointOf(g.lookup(key)))
		}
	}
	te.setTri = make([]func(types.Row) tri, len(b.sets))
	for i, s := range b.sets {
		te.setTri[i] = func(key types.Row) tri {
			return triFromBool(s.member(s.lookup(key)))
		}
	}
	return te
}

// refreshPointEnv re-snapshots a point environment's scalars.
func (b *bindings) refreshPointEnv(te *triEnv) {
	for i, s := range b.scalars {
		te.scalarRanges[i] = pointParam(s.point)
		te.pointCtx.Scalars[i] = s.point
	}
}

// pointParam is point estimate v as a range: a float is a zero-width
// range and NULL is NULL. Any other value — an integer, which a float
// range cannot carry exactly past 2^53, a string, a bool — and a NaN,
// which compares equal to every float, is unknown and decides nothing.
func pointParam(v types.Value) paramRange {
	switch {
	case v.IsNull():
		return paramRange{status: rsNull}
	case v.Kind() == types.KindFloat && !math.IsNaN(v.Float()):
		return okRange(bootstrap.Point(v.Float()))
	}
	return paramRange{status: rsUnknown}
}

// updateScalar installs a fresh estimate and variation range for scalar
// param idx; it reports whether a committed-range failure was detected.
func (b *bindings) updateScalar(idx int, point types.Value, reps []types.Value, rng paramRange) bool {
	s := b.scalars[idx]
	s.point = point
	s.reps = reps
	if b.noCommit {
		s.rng = paramRange{status: rsUnknown}
		return false
	}
	s.rng = rng
	// The committed range is held to every new point, whatever evidence
	// this batch's range carries: an exact integer at completion has an
	// unknown range (pointParam) and must still overturn a wrong commit.
	if s.hasCommitted && escapes(s.committed, point) {
		b.flips++
		b.tracer.Emit(Event{Kind: EvRangeFailure, Block: blockOf(b.scalarBlocks, idx),
			Point: pfloat(point), Lo: s.committed.Lo, Hi: s.committed.Hi, Boost: s.epsBoost})
		s.epsBoost *= 2
		return true
	}
	if rng.status != rsOK {
		return false
	}
	if !s.hasCommitted {
		s.committed = rng.r
		s.hasCommitted = true
		b.tracer.Emit(Event{Kind: EvCommit, Block: blockOf(b.scalarBlocks, idx),
			Point: pfloat(point), Lo: s.committed.Lo, Hi: s.committed.Hi, Boost: s.epsBoost})
		return false
	}
	s.committed = intersect(s.committed, rng.r)
	return false
}

// updateGroupEntry publishes a fresh estimate and variation range for
// group id of group param idx (key and h are the group's key and its
// hash); it reports whether a committed-range failure was detected.
// When commit is false (group below the minimum support), the range
// publishes as unknown so downstream tuples stay uncertain and no
// decision is committed. As for a scalar, an earlier committed range is
// held to the point either way (support below the threshold after one
// is possible only through replay).
func (b *bindings) updateGroupEntry(idx, id int, key types.Row, h uint64, point types.Value, rng paramRange, commit bool) bool {
	g := b.groups[idx]
	if b.noCommit || !commit {
		rng = paramRange{status: rsUnknown}
	}
	g.publish(id, point, rng)
	if b.noCommit {
		return false
	}
	committed, ok := g.committed.get(&g.keys, id, key, h)
	if ok && escapes(committed, point) {
		b.flips++
		b.emitKeyed(Event{Kind: EvRangeFailure, Block: blockOf(b.groupBlocks, idx),
			Point: pfloat(point), Lo: committed.Lo, Hi: committed.Hi, Boost: g.epsBoost}, key)
		return true
	}
	if rng.status != rsOK {
		return false
	}
	if !ok {
		g.committed.set(&g.keys, id, key, h, rng.r)
		b.emitKeyed(Event{Kind: EvCommit, Block: blockOf(b.groupBlocks, idx),
			Point: pfloat(point), Lo: rng.r.Lo, Hi: rng.r.Hi, Boost: g.epsBoost}, key)
		return false
	}
	g.committed.set(&g.keys, id, key, h, intersect(committed, rng.r))
	return false
}

// emitKeyed emits a trace event naming a group key; the key string is
// built only when a tracer is attached.
func (b *bindings) emitKeyed(ev Event, key types.Row) {
	if b.tracer == nil {
		return
	}
	ev.Key = keyString(key)
	b.tracer.Emit(ev)
}

// updateSetEntry publishes a fresh membership classification for
// group id of set param idx (key and h as in updateGroupEntry); it
// reports whether a committed membership decision was contradicted.
func (b *bindings) updateSetEntry(idx, id int, key types.Row, h uint64, point bool, t tri) bool {
	s := b.sets[idx]
	if b.noCommit {
		s.publish(id, point, triUnknown)
		return false
	}
	s.publish(id, point, t)
	if committed, ok := s.committed.get(&s.keys, id, key, h); ok {
		if point != committed {
			b.flips++
			s.committed.drop(&s.keys, id, key, h)
			b.emitKeyed(Event{Kind: EvRangeFailure, Block: blockOf(b.setBlocks, idx),
				Note: "membership contradicts committed decision"}, key)
			return true
		}
		return false
	}
	if t != triUnknown {
		s.committed.set(&s.keys, id, key, h, t == triTrue)
		note := "committed member"
		if t != triTrue {
			note = "committed non-member"
		}
		b.emitKeyed(Event{Kind: EvCommit, Block: blockOf(b.setBlocks, idx), Note: note}, key)
	}
	return false
}

// replicaRange derives the variation range of an uncertain value from
// its point estimate and the floats of its bootstrap replicas, with
// slack ε = epsSigma · stddev(replicas) (§3.2: ε equal to one standard
// deviation balances recomputation probability against uncertain-set
// size). It is the one evidence rule for replica ranges before the scan
// completes, so it returns unknown, never NULL, when the evidence cannot
// bound the value:
//   - a point that is not a finite number: a NULL estimate may still
//     become non-NULL, so NULL is not certain either;
//   - fewer than max(3, trials/4) replica observations (a group whose
//     rows fall outside the bootstrap subsample);
//   - a hairline replica spread, relative to the point's magnitude:
//     every replica of an AVG over one sampled tuple equals that tuple,
//     and the epsilon boost, which multiplies the spread, could not
//     recover from a wrong commit against it. A non-finite replica makes
//     the spread NaN, which counts as hairline.
func replicaRange(point types.Value, vals []float64, trials int, epsSigma float64) paramRange {
	p, ok := point.AsFloat()
	if !ok || len(vals) < max(3, trials/4) {
		return paramRange{status: rsUnknown}
	}
	sd := bootstrap.StdDev(vals)
	// Written as !(sd > ·) so a NaN spread or a non-finite point (whose
	// threshold is +Inf or NaN) is refused too.
	if !(sd > 1e-9*(1+math.Abs(p))) {
		return paramRange{status: rsUnknown}
	}
	return okRange(bootstrap.VariationRange(p, vals, epsSigma*sd))
}

// escapes reports whether the running point estimate left the committed
// range — the paper's failure condition. (Bootstrap replicas are not
// checked: with subsampled replicas their extremes are noisy, and the
// point estimate is what converges to the value the committed decisions
// must hold for; a wrong decision is caught when the point crosses.)
func escapes(committed bootstrap.Range, point types.Value) bool {
	f, ok := point.AsFloat()
	return ok && !committed.Contains(f)
}

func intersect(a, b bootstrap.Range) bootstrap.Range {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	if hi < lo {
		hi = lo
	}
	return bootstrap.Range{Lo: lo, Hi: hi}
}
