package core

import (
	"fmt"
	"math"
	"sync/atomic"

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
// subquery. Replica vectors are materialized lazily through repFn: with
// closed-form CLT ranges, per-trial group estimates are only needed for
// the (few) groups actually probed during snapshot error estimation.
type groupBinding struct {
	point     map[string]types.Value
	reps      map[string][]types.Value
	repFn     func(key string) []types.Value
	rng       map[string]paramRange
	committed map[string]bootstrap.Range
	complete  bool
	epsBoost  float64
}

// repsFor returns the (possibly lazily computed) replica vector of a
// group, or nil when the group is unknown.
func (g *groupBinding) repsFor(key string) []types.Value {
	if vs, ok := g.reps[key]; ok {
		return vs
	}
	if g.repFn == nil {
		return nil
	}
	vs := g.repFn(key)
	g.reps[key] = vs
	return vs
}

// repsForKey is repsFor for a key still sitting in a scratch buffer: a
// hit probes the map without building the string.
func (g *groupBinding) repsForKey(key []byte) []types.Value {
	if vs, ok := g.reps[string(key)]; ok {
		return vs
	}
	return g.repsFor(string(key))
}

// setBinding is the online membership of an IN-subquery. Per-trial
// membership vectors are materialized lazily through repFn (only the
// keys probed during snapshot error estimation pay for per-trial
// evaluation).
type setBinding struct {
	point     map[string]bool
	reps      map[string][]bool
	repFn     func(key string) []bool
	tri       map[string]tri
	committed map[string]bool // key → committed det membership
	complete  bool
	epsBoost  float64 // widened after each failure to guarantee progress
}

// repsFor returns the (possibly lazily computed) per-trial membership of
// a key, or nil when unknown.
func (s *setBinding) repsFor(key string) []bool {
	if ms, ok := s.reps[key]; ok {
		return ms
	}
	if s.repFn == nil {
		return nil
	}
	ms := s.repFn(key)
	s.reps[key] = ms
	return ms
}

// repsForKey is repsFor for a key still sitting in a scratch buffer.
func (s *setBinding) repsForKey(key []byte) []bool {
	if ms, ok := s.reps[string(key)]; ok {
		return ms
	}
	return s.repsFor(string(key))
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
		trials:  trials,
		scalars: make([]*scalarBinding, nScalar),
		groups:  make([]*groupBinding, nGroup),
		sets:    make([]*setBinding, nSet),
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
		b.groups[i] = &groupBinding{
			point:     map[string]types.Value{},
			reps:      map[string][]types.Value{},
			rng:       map[string]paramRange{},
			committed: map[string]bootstrap.Range{},
			epsBoost:  1,
		}
	}
	for i := range b.sets {
		b.sets[i] = &setBinding{
			point:     map[string]bool{},
			reps:      map[string][]bool{},
			tri:       map[string]tri{},
			committed: map[string]bool{},
			epsBoost:  1,
		}
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
// at the same batch).
func (b *bindings) reset() {
	for i, s := range b.scalars {
		boost := s.epsBoost
		b.scalars[i] = &scalarBinding{
			point: types.Null, reps: nullValues(b.trials),
			rng: paramRange{status: rsUnknown}, epsBoost: boost,
		}
	}
	for i, g := range b.groups {
		boost := g.epsBoost
		b.groups[i] = &groupBinding{
			point: map[string]types.Value{}, reps: map[string][]types.Value{},
			rng: map[string]paramRange{}, committed: map[string]bootstrap.Range{},
			epsBoost: boost,
		}
	}
	for i, s := range b.sets {
		boost := s.epsBoost
		b.sets[i] = &setBinding{
			point: map[string]bool{}, reps: map[string][]bool{},
			tri: map[string]tri{}, committed: map[string]bool{},
			epsBoost: boost,
		}
	}
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
		ctx.Groups = make([]func(string) (types.Value, bool), len(b.groups))
		for i := range b.groups {
			ctx.Groups[i] = func(key string) (types.Value, bool) {
				vs := b.groups[i].repsFor(key)
				if vs == nil {
					return types.Null, false
				}
				return vs[j], true
			}
		}
		ctx.SetsFns = make([]expr.SetLookup, len(b.sets))
		for i := range b.sets {
			ctx.SetsFns[i] = func(key string) bool {
				ms := b.sets[i].repsFor(key)
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
// set lookups dereference the binding slot (b.groups[i], b.sets[i]) at
// call time: reset() replaces the binding structs wholesale during
// failure-recovery replay, which would strand closures that captured
// the old pointers. Scalar values are by-value snapshots; refreshTriEnv
// (or ctxSet.refresh) re-fills them before each use.
func (b *bindings) newPointCtx() *expr.Ctx {
	ctx := &expr.Ctx{Scalars: make([]types.Value, len(b.scalars))}
	ctx.Groups = make([]func(string) (types.Value, bool), len(b.groups))
	for i := range b.groups {
		ctx.Groups[i] = func(key string) (types.Value, bool) {
			v, ok := b.groups[i].point[key]
			return v, ok
		}
	}
	ctx.SetsFns = make([]expr.SetLookup, len(b.sets))
	for i := range b.sets {
		ctx.SetsFns[i] = func(key string) bool { return b.sets[i].point[key] }
	}
	return ctx
}

// newTriEnv builds a persistent interval-semantics environment for
// tuple classification — one per goroutine that classifies (the
// controller's, Engine.triEnv; one per pool worker): group/set lookups
// are dynamic (they survive bindings.reset), the scalar snapshots are
// filled by refreshTriEnv before each use.
func (b *bindings) newTriEnv() *triEnv {
	te := &triEnv{pointCtx: b.newPointCtx()}
	te.scalarRanges = make([]paramRange, len(b.scalars))
	te.groupRanges = make([]func([]byte) paramRange, len(b.groups))
	for i := range b.groups {
		te.groupRanges[i] = func(key []byte) paramRange {
			g := b.groups[i]
			if r, ok := g.rng[string(key)]; ok {
				return r
			}
			if g.complete {
				// Missing group on a fully-consumed table: the nested
				// aggregate is NULL for this key, so predicates fail.
				return paramRange{status: rsNull}
			}
			return paramRange{status: rsUnknown}
		}
	}
	te.setTri = make([]func([]byte) tri, len(b.sets))
	for i := range b.sets {
		te.setTri[i] = func(key []byte) tri {
			s := b.sets[i]
			if t, ok := s.tri[string(key)]; ok {
				return t
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
	if s.rng.status != rsOK {
		return false
	}
	if !s.hasCommitted {
		s.committed = s.rng.r
		s.hasCommitted = true
		b.tracer.Emit(Event{Kind: EvCommit, Block: blockOf(b.scalarBlocks, idx),
			Point: pfloat(point), Lo: s.committed.Lo, Hi: s.committed.Hi, Boost: s.epsBoost})
		return false
	}
	if escapes(s.committed, point) {
		b.flips++
		b.tracer.Emit(Event{Kind: EvRangeFailure, Block: blockOf(b.scalarBlocks, idx),
			Point: pfloat(point), Lo: s.committed.Lo, Hi: s.committed.Hi, Boost: s.epsBoost})
		s.epsBoost *= 2
		return true
	}
	s.committed = intersect(s.committed, s.rng.r)
	return false
}

// updateGroupEntry installs a fresh estimate and variation range for one
// group of group param idx; it reports whether a committed-range failure
// was detected. When commit is false (group below the minimum support),
// the range publishes as unknown so downstream tuples stay uncertain and
// no decision is committed.
func (b *bindings) updateGroupEntry(idx int, key string, point types.Value, rng paramRange, commit bool) bool {
	g := b.groups[idx]
	g.point[key] = point
	if b.noCommit {
		g.rng[key] = paramRange{status: rsUnknown}
		return false
	}
	if !commit {
		g.rng[key] = paramRange{status: rsUnknown}
		// An earlier committed range may still be violated (possible
		// only through replay; in the forward path support is
		// monotone), so check it if present.
		if committed, ok := g.committed[key]; ok && escapes(committed, point) {
			b.flips++
			b.tracer.Emit(Event{Kind: EvRangeFailure, Block: blockOf(b.groupBlocks, idx), Key: key,
				Point: pfloat(point), Lo: committed.Lo, Hi: committed.Hi, Boost: g.epsBoost,
				Note: "support dropped below commit threshold during replay"})
			return true
		}
		return false
	}
	g.rng[key] = rng
	if rng.status != rsOK {
		return false
	}
	committed, ok := g.committed[key]
	if !ok {
		g.committed[key] = rng.r
		b.tracer.Emit(Event{Kind: EvCommit, Block: blockOf(b.groupBlocks, idx), Key: key,
			Point: pfloat(point), Lo: rng.r.Lo, Hi: rng.r.Hi, Boost: g.epsBoost})
		return false
	}
	if escapes(committed, point) {
		b.flips++
		if debugFailures.Load() {
			fmt.Printf("core: group range failure key=%q committed=[%g,%g] point=%v boost=%g\n",
				key, committed.Lo, committed.Hi, point, g.epsBoost)
		}
		b.tracer.Emit(Event{Kind: EvRangeFailure, Block: blockOf(b.groupBlocks, idx), Key: key,
			Point: pfloat(point), Lo: committed.Lo, Hi: committed.Hi, Boost: g.epsBoost})
		return true
	}
	g.committed[key] = intersect(committed, rng.r)
	return false
}

// debugFailures enables failure-path printf tracing (tests only). It is
// read from worker goroutines, hence atomic; structured observation
// should use the Tracer instead.
var debugFailures atomic.Bool

// updateSetEntry installs a fresh membership classification for one key
// of set param idx; it reports whether a committed membership decision
// was contradicted.
func (b *bindings) updateSetEntry(idx int, key string, point bool, t tri) bool {
	s := b.sets[idx]
	s.point[key] = point
	if b.noCommit {
		s.tri[key] = triUnknown
		return false
	}
	s.tri[key] = t
	if committed, ok := s.committed[key]; ok {
		if point != committed {
			b.flips++
			delete(s.committed, key)
			b.tracer.Emit(Event{Kind: EvRangeFailure, Block: blockOf(b.setBlocks, idx), Key: key,
				Note: "membership contradicts committed decision"})
			return true
		}
		return false
	}
	if t != triUnknown {
		s.committed[key] = t == triTrue
		note := "committed member"
		if t != triTrue {
			note = "committed non-member"
		}
		b.tracer.Emit(Event{Kind: EvCommit, Block: blockOf(b.setBlocks, idx), Key: key, Note: note})
	}
	return false
}

// buildRange derives the variation range of an uncertain numeric value
// from its point estimate and bootstrap replicas, with slack
// ε = epsSigma · stddev(replicas) (§3.2: ε equal to one standard
// deviation balances recomputation probability against uncertain-set
// size).
func buildRange(point types.Value, reps []types.Value, epsSigma float64) paramRange {
	p, ok := point.AsFloat()
	if !ok {
		if point.IsNull() {
			return paramRange{status: rsNull}
		}
		return paramRange{status: rsUnknown}
	}
	vals := make([]float64, 0, len(reps))
	for _, r := range reps {
		if f, ok := r.AsFloat(); ok {
			vals = append(vals, f)
		}
	}
	// Without enough replica evidence (e.g. a group whose rows fall
	// outside the bootstrap subsample) no range can be trusted: stay
	// uncertain rather than committing against a degenerate interval.
	if len(vals) < minReplicaObs(len(reps)) {
		return paramRange{status: rsUnknown}
	}
	sd := bootstrap.StdDev(vals)
	// (Near-)zero replica variance before completion means the
	// bootstrap has no dispersion information — e.g. every replica of
	// an AVG over a single sampled tuple equals that tuple, up to
	// floating-point noise. Such hairline ranges must never commit
	// deterministic decisions: the epsilon boost multiplies the (tiny)
	// variance and could not recover from a wrong commit. The
	// threshold is relative to the value magnitude.
	if sd <= 1e-9*(1+math.Abs(p)) {
		return paramRange{status: rsUnknown}
	}
	return okRange(bootstrap.VariationRange(p, vals, epsSigma*sd))
}

// minReplicaObs is the minimum number of replica observations required
// to trust a variation range.
func minReplicaObs(trials int) int {
	m := trials / 4
	if m < 3 {
		m = 3
	}
	return m
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
