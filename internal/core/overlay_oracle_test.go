package core

import (
	"fmt"
	"math"
	"testing"

	"fluodb/internal/agg"
	"fluodb/internal/bootstrap"
	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// The equivalence oracle of snapshot-time evaluation: the trial-major,
// string-keyed copy-on-write overlays that snapeval.go replaced, kept
// verbatim as test-only code. One overlay per (trial, snapshot) clones a
// group's states on first touch and folds the cached uncertain set into
// it through the interpreter — slow, allocation-heavy, and obviously
// faithful to §3.3. TestSnapshotMatchesOverlayOracle holds every
// snapshot cell and every published replica vector to it bit for bit.

// mainStates returns the entry's main aggregate states, materializing a
// State view of the banked accumulators when the table is banked.
func (t *onlineTable) mainStates(e *onlineEntry) []agg.State {
	if e.mainW == nil {
		return e.main
	}
	out := make([]agg.State, len(t.cltKinds))
	for i, k := range t.cltKinds {
		switch k {
		case cltCount:
			out[i] = agg.CountStateOf(e.mainW[i])
		case cltSum:
			out[i] = agg.SumStateOf(e.mainV[i], e.mainW[i] > 0)
		default: // cltAvg
			out[i] = agg.AvgStateOf(e.mainV[i], e.mainW[i])
		}
	}
	return out
}

// trialStates returns trial j's replica states, materializing a State
// view of the bank cells when the table is banked.
func (t *onlineTable) trialStates(e *onlineEntry, j int) []agg.State {
	if e.bankW == nil {
		return e.reps[j]
	}
	out := make([]agg.State, len(t.cltKinds))
	for i, k := range t.cltKinds {
		w := e.bankW[t.bankW(i)*t.trials+j]
		switch k {
		case cltCount:
			out[i] = agg.CountStateOf(w)
		case cltSum:
			out[i] = agg.SumStateOf(e.bankV[t.bankV(i)*t.trials+j], w > 0)
		default: // cltAvg
			out[i] = agg.AvgStateOf(e.bankV[t.bankV(i)*t.trials+j], w)
		}
	}
	return out
}

// trialCtx builds the expression context of bootstrap trial j (the
// per-call contexts the overlays evaluated under).
func (b *bindings) trialCtx(row types.Row, j int) *expr.Ctx {
	ctx := &expr.Ctx{Row: row}
	ctx.Scalars = make([]types.Value, len(b.scalars))
	for i, s := range b.scalars {
		ctx.Scalars[i] = s.reps[j]
	}
	ctx.Groups = make([]func(string) (types.Value, bool), len(b.groups))
	for i := range b.groups {
		g := b.groups[i]
		ctx.Groups[i] = func(key string) (types.Value, bool) {
			vs := g.repsFor(key)
			if vs == nil {
				return types.Null, false
			}
			return vs[j], true
		}
	}
	ctx.SetsFns = make([]expr.SetLookup, len(b.sets))
	for i := range b.sets {
		s := b.sets[i]
		ctx.SetsFns[i] = func(key string) bool {
			ms := s.repsFor(key)
			return ms != nil && ms[j]
		}
	}
	return ctx
}

// overlay is a copy-on-write view of an onlineTable for one trial
// (trial = -1 selects the main states). Snapshots fold the uncertain set
// into the overlay without disturbing the deterministic base state.
type overlay struct {
	base    *onlineTable
	trial   int
	touched map[string]*exec.GroupEntry
	extra   []string // keys created by uncertain rows, in order
}

func newOverlay(base *onlineTable, trial int) *overlay {
	return &overlay{base: base, trial: trial, touched: map[string]*exec.GroupEntry{}}
}

// baseStates selects the right state set from a base entry. For banked
// tables and trial >= 0 the returned states are freshly materialized
// views of the bank cells (mutation-safe).
func (o *overlay) baseStates(e *onlineEntry) []agg.State {
	if o.trial < 0 {
		return o.base.mainStates(e)
	}
	return o.base.trialStates(e, o.trial)
}

// entryFor returns a mutable entry for the key, cloning from base on
// first touch.
func (o *overlay) entryFor(b *plan.Block, key string, keyRow types.Row) *exec.GroupEntry {
	if e, ok := o.touched[key]; ok {
		return e
	}
	var states []agg.State
	if be, ok := o.base.m[key]; ok {
		src := o.baseStates(be)
		states = make([]agg.State, len(src))
		for i, s := range src {
			states[i] = s.Clone()
		}
	} else {
		states = newEntryStates(b)
		o.extra = append(o.extra, key)
	}
	e := &exec.GroupEntry{Key: keyRow, States: states}
	o.touched[key] = e
	return e
}

// fold adds one row into the overlay with the given weight.
func (o *overlay) fold(b *plan.Block, ctx *expr.Ctx, w float64) {
	keyRow := make(types.Row, len(b.GroupBy))
	cols := make([]int, len(b.GroupBy))
	for i, g := range b.GroupBy {
		keyRow[i] = g.Eval(ctx)
		cols[i] = i
	}
	key := keyRow.KeyString(cols)
	e := o.entryFor(b, key, keyRow)
	for i := range b.Aggs {
		e.States[i].Add(b.Aggs[i].Arg.Eval(ctx), w)
	}
}

// keys lists all group keys (base order, then overlay-only keys).
func (o *overlay) keys() []string {
	if len(o.extra) == 0 {
		return o.base.order
	}
	out := make([]string, 0, len(o.base.order)+len(o.extra))
	out = append(out, o.base.order...)
	out = append(out, o.extra...)
	return out
}

// entry returns the (possibly overlaid) group entry for a key, or nil.
func (o *overlay) entry(key string) *exec.GroupEntry {
	if e, ok := o.touched[key]; ok {
		return e
	}
	if be, ok := o.base.m[key]; ok {
		return &exec.GroupEntry{Key: be.key, States: o.baseStates(be)}
	}
	return nil
}

// postInto writes the group's finalized post-aggregate row
// [keys..., results...] into buf, under the evidence rule: a trial
// overlay answers only for groups it touched or whose table entry has
// subsampled tuples.
func (o *overlay) postInto(b *plan.Block, key string, scale float64, buf types.Row) (types.Row, bool) {
	if e, ok := o.touched[key]; ok {
		return exec.PostRowInto(b, e, scale, buf), true
	}
	be, ok := o.base.m[key]
	if !ok || (o.trial >= 0 && be.ns == 0) {
		return buf, false
	}
	if o.base.banked {
		t := o.base
		bw, bv, stride, trial := be.mainW, be.mainV, 1, o.trial >= 0
		if trial {
			bw, bv = be.bankW[o.trial:], be.bankV[o.trial:]
			stride = t.trials
		}
		buf = buf[:0]
		buf = append(buf, be.key...)
		for i, k := range t.cltKinds {
			// Replica banks may be deduplicated across aggregates: route
			// through the stream aliases (identity for the mains, which are
			// always written per aggregate).
			wi, vi := i, i
			if trial {
				wi, vi = t.bankW(i), t.bankV(i)
			}
			w := bw[wi*stride]
			switch {
			case k == cltCount:
				buf = append(buf, types.NewFloat(w*scale))
			case w == 0:
				buf = append(buf, types.Null)
			case k == cltSum:
				buf = append(buf, types.NewFloat(bv[vi*stride]*scale))
			default: // cltAvg
				buf = append(buf, types.NewFloat(bv[vi*stride]/w))
			}
		}
		return buf, true
	}
	states := be.main
	if o.trial >= 0 {
		states = be.reps[o.trial]
	}
	buf = buf[:0]
	buf = append(buf, be.key...)
	for _, s := range states {
		buf = append(buf, s.Result(scale))
	}
	return buf, true
}

// oraclePointCtx builds a fresh point-estimate context over the current
// bindings.
func oraclePointCtx(b *bindings) *expr.Ctx {
	ctx := b.newPointCtx()
	for i, s := range b.scalars {
		ctx.Scalars[i] = s.point
	}
	return ctx
}

// overlayFor folds the runner's uncertain set (under the point bindings
// for trial < 0, or trial j's bindings and Poisson weights otherwise)
// into a copy-on-write view of its deterministic state.
func (r *blockRunner) overlayFor(trial int) *overlay {
	o := newOverlay(r.tab, trial)
	var ctx *expr.Ctx
	if trial < 0 {
		ctx = oraclePointCtx(r.eng.bind)
	} else {
		ctx = r.eng.bind.trialCtx(nil, trial)
	}
	if trial < 0 {
		for i := range r.uncertain {
			u := &r.uncertain[i]
			ctx.Row = u.row
			if r.uncertainWhere != nil && !r.uncertainWhere.Eval(ctx).Truthy() {
				continue
			}
			o.fold(r.b, ctx, 1)
		}
		return o
	}
	for i := range r.uncertain {
		u := &r.uncertain[i]
		if u.weights == nil || u.weights[trial] == 0 {
			continue
		}
		ctx.Row = u.row
		if r.uncertainWhere != nil && !r.uncertainWhere.Eval(ctx).Truthy() {
			continue
		}
		o.fold(r.b, ctx, float64(u.weights[trial])*r.repW(u))
	}
	return o
}

// oracleSoleEntry fetches the single global-group entry of a scalar
// block (creating an empty one when no rows qualified yet).
func oracleSoleEntry(b *plan.Block, o *overlay) *exec.GroupEntry {
	keys := o.keys()
	if len(keys) == 0 {
		return &exec.GroupEntry{States: newEntryStates(b)}
	}
	return o.entry(keys[0])
}

// oracleRows is the replaced Engine.snapshot evaluation: the root's
// scored cells in emission order (before ORDER BY/LIMIT).
func oracleRows(e *Engine) [][]CellEstimate {
	b := e.q.Root
	rr := e.runners[len(e.runners)-1]
	scale := e.scaleFor(b)
	ts := e.tables[b.Input.Fact]
	hasCI := make([]bool, len(b.Select))
	for c, se := range b.Select {
		hasCI[c] = columnIsAggregated(se, len(b.GroupBy))
	}
	mainO := rr.overlayFor(-1)
	keys := mainO.keys()
	effTrials := e.opt.Trials
	if e.opt.SnapshotEvalBudget > 0 {
		groups := len(keys)
		if groups < 1 {
			groups = 1
		}
		effTrials = e.opt.SnapshotEvalBudget / groups
		if effTrials < 8 {
			effTrials = 8
		}
		if effTrials > e.opt.Trials {
			effTrials = e.opt.Trials
		}
	}
	trialOs := make([]*overlay, effTrials)
	for j := range trialOs {
		trialOs[j] = rr.overlayFor(j)
	}
	pctx := oraclePointCtx(e.bind)
	tctxs := make([]*expr.Ctx, effTrials)
	for j := range tctxs {
		tctxs[j] = e.bind.trialCtx(nil, j)
	}
	var rows [][]CellEstimate
	var tbuf types.Row
	repVals := make([][]float64, len(b.Select))
	pointF := make([]float64, len(b.Select))
	pointOk := make([]bool, len(b.Select))
	adjust := ts.sqrtP < 1
	emit := func(entry *exec.GroupEntry, trialPost func(j int, buf types.Row) (types.Row, bool)) {
		post := exec.PostRow(b, entry, scale)
		pctx.Row = post
		if b.Having != nil && !b.Having.Eval(pctx).Truthy() {
			return
		}
		point := make(types.Row, len(b.Select))
		for c, se := range b.Select {
			pctx.Row = post
			point[c] = se.Eval(pctx)
			if hasCI[c] {
				repVals[c] = repVals[c][:0]
				pointF[c], pointOk[c] = point[c].AsFloat()
			}
		}
		for j := 0; j < effTrials; j++ {
			tpost, ok := trialPost(j, tbuf)
			if !ok {
				continue
			}
			tbuf = tpost
			for c, se := range b.Select {
				if !hasCI[c] {
					continue
				}
				tctxs[j].Row = tpost
				f, ok := se.Eval(tctxs[j]).AsFloat()
				if !ok {
					continue
				}
				if adjust && pointOk[c] {
					f = pointF[c] + (f-pointF[c])*ts.sqrtP
				}
				repVals[c] = append(repVals[c], f)
			}
		}
		cells := make([]CellEstimate, len(b.Select))
		for c := range cells {
			cells[c].Value = point[c]
			if hasCI[c] && len(repVals[c]) > 0 {
				cells[c].RSD = bootstrap.RSD(repVals[c])
				cells[c].CI = bootstrap.PercentileCIInPlace(repVals[c], e.opt.Confidence)
				cells[c].HasCI = true
			}
		}
		rows = append(rows, cells)
	}
	if len(b.GroupBy) == 0 {
		emit(oracleSoleEntry(b, mainO), func(j int, buf types.Row) (types.Row, bool) {
			return exec.PostRowInto(b, oracleSoleEntry(b, trialOs[j]), scale, buf), true
		})
		return rows
	}
	for _, key := range keys {
		entry := mainO.entry(key)
		if entry == nil {
			continue
		}
		k := key
		emit(entry, func(j int, buf types.Row) (types.Row, bool) {
			return trialOs[j].postInto(b, k, scale, buf)
		})
	}
	return rows
}

// oracleScalar is the replaced updateScalarBinding evaluation: the
// block's point estimate and adjusted replica vector.
func oracleScalar(e *Engine, r *blockRunner) (types.Value, []types.Value) {
	b := r.b
	scale := e.scaleFor(b)
	pctx := oraclePointCtx(e.bind)
	pctx.Row = exec.PostRow(b, oracleSoleEntry(b, r.overlayFor(-1)), scale)
	point := b.Select[0].Eval(pctx)
	sqrtP := e.tables[b.Input.Fact].sqrtP
	reps := make([]types.Value, e.opt.Trials)
	for j := range reps {
		tctx := e.bind.trialCtx(nil, j)
		tctx.Row = exec.PostRow(b, oracleSoleEntry(b, r.overlayFor(j)), scale)
		reps[j] = adjustRep(point, b.Select[0].Eval(tctx), sqrtP)
	}
	return point, reps
}

// oracleTrials materializes every trial overlay and context of a block
// (what the replaced lazy evaluators built on their first probe).
func oracleTrials(e *Engine, r *blockRunner) ([]*overlay, []*expr.Ctx) {
	trialOs := make([]*overlay, e.opt.Trials)
	tctxs := make([]*expr.Ctx, e.opt.Trials)
	for j := range trialOs {
		trialOs[j] = r.overlayFor(j)
		tctxs[j] = e.bind.trialCtx(nil, j)
	}
	return trialOs, tctxs
}

// oracleGroupReps is the replaced makeGroupRepFn closure body.
func oracleGroupReps(e *Engine, r *blockRunner, trialOs []*overlay, tctxs []*expr.Ctx, key string) []types.Value {
	b := r.b
	scale := e.scaleFor(b)
	sqrtP := e.tables[b.Input.Fact].sqrtP
	point := types.Null
	if v, ok := e.bind.groups[b.ParamIdx].point[key]; ok {
		point = v
	}
	reps := make([]types.Value, e.opt.Trials)
	var buf types.Row
	for j := range reps {
		reps[j] = types.Null
		if post, ok := trialOs[j].postInto(b, key, scale, buf); ok {
			buf = post
			tctxs[j].Row = post
			reps[j] = adjustRep(point, b.Select[0].Eval(tctxs[j]), sqrtP)
		}
	}
	return reps
}

// oracleSetReps is the replaced makeSetRepFn closure body (including its
// whole-set point overlay per probed key).
func oracleSetReps(e *Engine, r *blockRunner, trialOs []*overlay, tctxs []*expr.Ctx, key string) []bool {
	b := r.b
	scale := e.scaleFor(b)
	sqrtP := e.tables[b.Input.Fact].sqrtP
	extensive := extensiveSlots(b)
	var post types.Row
	if en := r.overlayFor(-1).entry(key); en != nil {
		post = exec.PostRow(b, en, scale)
	}
	reps := make([]bool, e.opt.Trials)
	var buf types.Row
	for j := range reps {
		tpost, ok := trialOs[j].postInto(b, key, scale, buf)
		if !ok {
			continue
		}
		buf = tpost
		for c := range buf {
			if buf[c].IsNull() && extensive[c] {
				buf[c] = types.NewFloat(0)
			}
			if post != nil {
				buf[c] = adjustRep(post[c], buf[c], sqrtP)
			}
		}
		tctxs[j].Row = buf
		reps[j] = b.Having == nil || b.Having.Eval(tctxs[j]).Truthy()
	}
	return reps
}

// oracleSetRepPostValues is the replaced setRepPostValues.
func oracleSetRepPostValues(e *Engine, r *blockRunner, key string, post types.Row) [][]float64 {
	b := r.b
	scale := e.scaleFor(b)
	sqrtP := e.tables[b.Input.Fact].sqrtP
	extensive := extensiveSlots(b)
	repVals := make([][]float64, len(post))
	var buf types.Row
	for j := 0; j < e.opt.Trials; j++ {
		tpost, ok := r.overlayFor(j).postInto(b, key, scale, buf)
		if !ok {
			continue
		}
		buf = tpost
		for c := range buf {
			v := buf[c]
			if v.IsNull() && extensive[c] {
				v = types.NewFloat(0)
			}
			v = adjustRep(post[c], v, sqrtP)
			if f, ok := v.AsFloat(); ok {
				repVals[c] = append(repVals[c], f)
			}
		}
	}
	return repVals
}

// sameValue is bit-level equality of two values.
func sameValue(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return types.Compare(a, b) == 0
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sampleKeys returns up to limit keys of a binding map, spread over the
// sorted key space.
func sampleKeys[V any](m map[string]V, limit int) []string {
	keys := sortedKeys(m)
	if len(keys) <= limit {
		return keys
	}
	out := make([]string, 0, limit)
	for i := 0; len(out) < limit; i += len(keys) / limit {
		out = append(out, keys[i])
	}
	return out
}

// checkAgainstOracle compares, after one Step, everything snapshot-time
// evaluation published — the snapshot's cells and each parameter block's
// replica vectors — with the overlay oracle run over the same engine
// state. Blocks are checked in dependency order, so the oracle's trial
// contexts only ever read replica vectors that were themselves just
// verified.
func checkAgainstOracle(t *testing.T, label string, e *Engine, emitted [][]CellEstimate) {
	t.Helper()
	const keysPerBlock = 24
	for _, r := range e.runners {
		b := r.b
		switch b.Kind {
		case plan.ScalarBlock:
			sb := e.bind.scalars[b.ParamIdx]
			point, reps := oracleScalar(e, r)
			if !sameValue(sb.point, point) {
				t.Fatalf("%s: block %d scalar point %v, oracle %v", label, b.ID, sb.point, point)
			}
			for j := range reps {
				if !sameValue(sb.reps[j], reps[j]) {
					t.Fatalf("%s: block %d scalar replica %d = %v, oracle %v", label, b.ID, j, sb.reps[j], reps[j])
				}
			}
		case plan.GroupScalarBlock:
			g := e.bind.groups[b.ParamIdx]
			trialOs, tctxs := oracleTrials(e, r)
			for _, key := range append(sampleKeys(g.point, keysPerBlock), "N-987654321") {
				got, want := g.repsFor(key), oracleGroupReps(e, r, trialOs, tctxs, key)
				for j := range want {
					if !sameValue(got[j], want[j]) {
						t.Fatalf("%s: block %d group %q replica %d = %v, oracle %v", label, b.ID, key, j, got[j], want[j])
					}
				}
			}
		case plan.SetBlock:
			s := e.bind.sets[b.ParamIdx]
			trialOs, tctxs := oracleTrials(e, r)
			for _, key := range append(sampleKeys(s.point, keysPerBlock), "N-987654321") {
				got, want := s.repsFor(key), oracleSetReps(e, r, trialOs, tctxs, key)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s: block %d set key %q trial %d member %v, oracle %v", label, b.ID, key, j, got[j], want[j])
					}
				}
				en := r.tab.m[key]
				if en == nil {
					continue
				}
				post := exec.PostRow(b, r.overlayFor(-1).entry(key), e.scaleFor(b))
				gotV, wantV := e.setRepPostValues(r, key, post, e.scaleFor(b)), oracleSetRepPostValues(e, r, key, post)
				for c := len(b.GroupBy); c < len(post); c++ {
					if len(gotV[c]) != len(wantV[c]) {
						t.Fatalf("%s: block %d set key %q slot %d: %d replica values, oracle %d", label, b.ID, key, c, len(gotV[c]), len(wantV[c]))
					}
					for k := range wantV[c] {
						if !sameBits(gotV[c][k], wantV[c][k]) {
							t.Fatalf("%s: block %d set key %q slot %d value %d = %v, oracle %v", label, b.ID, key, c, k, gotV[c][k], wantV[c][k])
						}
					}
				}
			}
		}
	}
	want := oracleRows(e)
	if len(emitted) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", label, len(emitted), len(want))
	}
	for i := range want {
		for c := range want[i] {
			g, w := emitted[i][c], want[i][c]
			if !sameValue(g.Value, w.Value) || g.HasCI != w.HasCI || !sameBits(g.RSD, w.RSD) ||
				!sameBits(g.CI.Lo, w.CI.Lo) || !sameBits(g.CI.Hi, w.CI.Hi) {
				t.Fatalf("%s: row %d col %d = %+v, oracle %+v", label, i, c, g, w)
			}
		}
	}
}

// oracleCatalog extends the synthetic catalog with a partsupp table for
// the Q20 shape.
func oracleCatalog(n, nParts int, seed uint64) *storage.Catalog {
	cat := synthCatalog(n, nParts, seed)
	rng := bootstrap.NewRNG(seed ^ 0x9e37)
	ps := storage.NewTable("partsupp", types.NewSchema(
		"partkey", types.KindInt,
		"availqty", types.KindFloat,
	))
	for i := 0; i < n/2; i++ {
		_ = ps.Append(types.Row{
			types.NewInt(int64(rng.Intn(nParts))),
			types.NewFloat(rng.Float64() * float64(40*n/nParts)),
		})
	}
	cat.Put(ps)
	return cat
}

// TestSnapshotMatchesOverlayOracle pins the row-major evaluator to the
// overlays it replaced: at every mini-batch, every snapshot cell (value,
// CI bounds, RSD) and every published scalar, correlated and membership
// replica vector equals the oracle's bit for bit — across the suite's
// query shapes, a non-banked block, the auto-subsampled adjust path and
// a budget-thinned trial axis, serial and parallel.
func TestSnapshotMatchesOverlayOracle(t *testing.T) {
	shapes := []struct {
		name, sql string
		opt       Options
	}{
		{"SBI", `SELECT AVG(play_time) FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, Options{BootstrapSampleCap: -1}},
		{"C1", `SELECT FLOOR(play_time / 120) AS play_bucket, COUNT(*) AS sessions FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions) GROUP BY play_bucket`, Options{BootstrapSampleCap: -1}},
		{"C3", `SELECT country, AVG(play_time) AS retention, COUNT(*) AS sessions FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)
			GROUP BY country HAVING COUNT(*) > 50`, Options{BootstrapSampleCap: -1}},
		{"Q17", `SELECT SUM(extendedprice) / 7.0 AS avg_yearly FROM lineitem l
			WHERE quantity < (SELECT 0.5 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`, Options{BootstrapSampleCap: -1}},
		{"Q18", `SELECT orderkey, partkey, SUM(quantity) AS total_qty FROM lineitem
			WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 110)
			GROUP BY orderkey, partkey`, Options{BootstrapSampleCap: -1}},
		{"Q20", `SELECT COUNT(*) AS excess_suppliers, AVG(availqty) AS avg_avail FROM partsupp ps
			WHERE availqty > (SELECT 0.5 * SUM(quantity) FROM lineitem i WHERE i.partkey = ps.partkey)`, Options{BootstrapSampleCap: -1}},
		{"opaque", `SELECT country, STDDEV(play_time), MIN(play_time), COUNT(*) FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) + STDDEV(buffer_time) FROM sessions)
			GROUP BY country`, Options{BootstrapSampleCap: -1}},
		{"nested-set", `SELECT partkey, COUNT(*), SUM(extendedprice) FROM lineitem
			WHERE orderkey IN (SELECT orderkey FROM lineitem
				WHERE quantity > (SELECT AVG(quantity) FROM lineitem)
				GROUP BY orderkey HAVING SUM(quantity) > 60)
			GROUP BY partkey`, Options{BootstrapSampleCap: -1}},
		{"case", `SELECT COUNT(*), AVG(play_time) FROM sessions
			WHERE CASE WHEN buffer_time > (SELECT AVG(buffer_time) FROM sessions) THEN 1 ELSE 0 END = 1`, Options{BootstrapSampleCap: -1}},
		{"logic", `SELECT COUNT(*), SUM(extendedprice) FROM lineitem l
			WHERE (quantity < (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
			       OR NOT (extendedprice <= (SELECT AVG(extendedprice) FROM lineitem)) OR quantity > 48)
			  AND orderkey NOT IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 140)
			  AND -(SELECT AVG(quantity) FROM lineitem) / 4 > -quantity - 1.5`, Options{BootstrapSampleCap: -1}},
		{"between", `SELECT country, COUNT(*) FROM sessions
			WHERE buffer_time BETWEEN (SELECT AVG(buffer_time) FROM sessions) - 20
			                      AND (SELECT AVG(buffer_time) FROM sessions) + 25
			GROUP BY country`, Options{BootstrapSampleCap: -1}},
		{"opaque-group", `SELECT COUNT(*), AVG(extendedprice) FROM lineitem l
			WHERE quantity > (SELECT AVG(quantity) + STDDEV(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`,
			Options{BootstrapSampleCap: -1}},
		{"opaque-set", `SELECT partkey, SUM(quantity) FROM lineitem
			WHERE orderkey IN (SELECT orderkey FROM lineitem
				WHERE quantity > (SELECT 0.6 * AVG(quantity) FROM lineitem)
				GROUP BY orderkey HAVING MAX(quantity) > 42)
			GROUP BY partkey`, Options{BootstrapSampleCap: 1500}},
		{"select-param", `SELECT country, SUM(play_time) / (SELECT AVG(play_time) FROM sessions), COUNT(*) FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)
			GROUP BY country HAVING SUM(play_time) > (SELECT 30 * AVG(play_time) FROM sessions)`, Options{BootstrapSampleCap: 1200}},
		{"subsampled", `SELECT orderkey, SUM(quantity) AS total_qty FROM lineitem
			WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 110)
			GROUP BY orderkey`, Options{BootstrapSampleCap: 600}},
		{"subsampled-Q17", `SELECT SUM(extendedprice) / 7.0 AS avg_yearly FROM lineitem l
			WHERE quantity < (SELECT 0.5 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`, Options{BootstrapSampleCap: 900}},
		{"thinned", `SELECT orderkey, SUM(quantity) AS total_qty FROM lineitem
			WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 110)
			GROUP BY orderkey`, Options{BootstrapSampleCap: -1, SnapshotEvalBudget: 4000}},
	}
	for _, sh := range shapes {
		for _, seed := range []uint64{3, 11} {
			for _, par := range []int{1, 4} {
				label := fmt.Sprintf("%s/seed%d/P%d", sh.name, seed, par)
				cat := oracleCatalog(2400, 24, 100+seed)
				q, err := plan.Compile(sh.sql, cat)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				opt := sh.opt
				opt.Batches, opt.Trials, opt.Seed = 8, 24, seed
				opt.Parallelism, opt.ParallelThreshold = par, 64
				eng, err := New(q, cat, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				uncertain := 0
				for !eng.Done() {
					snap, err := eng.Step()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					uncertain += eng.UncertainRows()
					// No shape orders or limits its output: snapshot rows are
					// in emission order, as the oracle's are.
					checkAgainstOracle(t, fmt.Sprintf("%s batch %d", label, eng.Batch()), eng, snap.Rows)
				}
				eng.Close()
				if uncertain == 0 {
					t.Fatalf("%s: no uncertain rows were ever cached; the shape exercises nothing", label)
				}
			}
		}
	}
}
