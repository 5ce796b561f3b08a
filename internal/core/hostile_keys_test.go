package core

import (
	"fmt"
	"math"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/colstore"
	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// hostileDomain lists the key values of the hostile-key table: NULL,
// NaN, both zeros (two stored words, one key) and ordinary keys; every
// key repeats over many rows.
func hostileDomain() []types.Value {
	return []types.Value{
		types.Null, types.NewFloat(math.NaN()), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(0), types.NewFloat(1), types.NewFloat(2.5), types.NewFloat(-3),
		types.NewFloat(7), types.NewFloat(1e300),
	}
}

// hostileCatalog builds table h(k FLOAT, x FLOAT) over hostileDomain,
// the first keys drawn twice as often, so per-key sums spread around
// the membership threshold.
func hostileCatalog(n int, seed uint64) *storage.Catalog {
	dom := hostileDomain()
	t := storage.NewTable("h", types.NewSchema("k", types.KindFloat, "x", types.KindFloat))
	rng := bootstrap.NewRNG(seed)
	for i := 0; i < n; i++ {
		_ = t.Append(types.Row{dom[rng.Intn(len(dom)+3)%len(dom)], types.NewFloat(rng.Float64() * 20)})
	}
	cat := storage.NewCatalog()
	cat.Put(t)
	return cat
}

// TestHostileKeyParity runs IN, NOT IN and a negated correlated
// comparison over keys that include NULL, NaN, −0.0, +0.0 and
// duplicates, at Parallelism 1 and 2. After every batch each key must
// read the same point, tri and replica lanes through every consumer of
// the binding (checkHostileKeys), and the final answer must equal
// exec.Run's.
func TestHostileKeyParity(t *testing.T) {
	cat := hostileCatalog(600, 29)
	const sub = `(SELECT k FROM h GROUP BY k HAVING SUM(x) > 640)`
	for _, tc := range []struct{ name, sql string }{
		{"in", `SELECT COUNT(*), SUM(x) FROM h WHERE k IN ` + sub},
		{"not-in", `SELECT COUNT(*), SUM(x) FROM h WHERE k NOT IN ` + sub},
		{"not-correlated", `SELECT COUNT(*), SUM(x) FROM h o
			WHERE NOT (x < (SELECT AVG(x) FROM h i WHERE i.k = o.k))`},
	} {
		for _, p := range []int{1, 2} {
			label := fmt.Sprintf("%s/P=%d", tc.name, p)
			q, err := plan.Compile(tc.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := exec.Run(q, cat)
			if err != nil {
				t.Fatal(err)
			}
			q, _ = plan.Compile(tc.sql, cat)
			eng, err := New(q, cat, WithSeams(Options{Batches: 6, Trials: 24, Seed: 31,
				Parallelism: p}, Seams{PartRows: 16}))
			if err != nil {
				t.Fatal(err)
			}
			var last *Snapshot
			for !eng.Done() {
				if last, err = eng.Step(); err != nil {
					t.Fatal(err)
				}
				checkHostileKeys(t, fmt.Sprintf("%s/batch %d", label, eng.Batch()), eng)
			}
			// Every hostile key is a group of the parameter block by now.
			for _, v := range hostileDomain() {
				for _, s := range eng.bind.sets {
					if s.lookup(types.Row{v}) < 0 {
						t.Fatalf("%s: key %v is not published", label, v)
					}
				}
				for _, g := range eng.bind.groups {
					if g.lookup(types.Row{v}) < 0 {
						t.Fatalf("%s: key %v is not published", label, v)
					}
				}
			}
			// SUM folds in another order than exec.Run: within 1e-12.
			rowsEqual(t, last.ValueRows(), exact.Rows, 0, 1e-12)
			eng.Close()
		}
	}
}

// checkHostileKeys holds, for every key of hostileDomain and every
// correlated or membership binding, the binding's own arrays against
// each consumer's read: the classification environment (triEnv), the
// interpreter's point and trial contexts, the lowered tvSet/tvGroup
// nodes by key and by ordinal (every stored word of the key), and the
// keyed kernel slot in a classification and a point epoch.
func checkHostileKeys(t *testing.T, label string, eng *Engine) {
	t.Helper()
	root := eng.runners[len(eng.runners)-1]
	if root.colPl == nil || !root.colPl.ok || root.colPl.ct == nil {
		t.Fatalf("%s: root block is not columnar", label)
	}
	ct := root.colPl.ct
	ev := root.eval()
	n := ev.width
	te := eng.triEnv()
	pctx := ev.ctxs.point()
	tctx := ev.ctxs.axis(n)
	kcol := &expr.Col{Idx: 0, Name: "k", Typ: types.KindFloat}
	// ords maps each stored word of k (NULL: its own) to its ordinals.
	ords := map[uint64][]int{}
	for _, seg := range ct.Segs {
		for i := 0; i < seg.N; i++ {
			ords[wordOf(ct.Value(seg, 0, i))] = append(ords[wordOf(ct.Value(seg, 0, i))], seg.Base+i)
		}
	}
	env := &tvEnv{bind: eng.bind, stride: n, ct: ct}
	env.epoch = uint32(eng.Batch())
	// lanes reads a lowered node over the key's row by key and at every
	// ordinal holding one of its words, and checks each read against
	// want (lane 0 the point, lanes 1.. the trials).
	type reader func(keys *tvKeys) (got []string, ok bool)
	check := func(what string, v types.Value, want []string, read reader) {
		t.Helper()
		env.seg, env.row = nil, types.Row{v}
		got, ok := read(nil)
		if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %s key %v by key: %v (ok %v), binding %v", label, what, v, got, ok, want)
		}
		keys := &tvKeys{col: 0}
		keys.reset()
		for _, o := range ords[wordOf(v)] {
			env.seg, env.i = ct.Segment(o)
			env.row = env.seg.Rows[env.i]
			got, ok := read(keys)
			if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s key %v at ordinal %d: %v (ok %v), binding %v", label, what, v, o, got, ok, want)
			}
		}
		env.seg = nil
	}
	zeroID := map[int]int{}
	for idx, s := range eng.bind.sets {
		for _, v := range hostileDomain() {
			key := types.Row{v}
			id := s.lookup(key)
			if v.Kind() == types.KindFloat && v.Float() == 0 {
				if prev, ok := zeroID[idx]; ok && prev != id {
					t.Fatalf("%s: set %d: −0.0 and 0.0 resolve to ids %d and %d", label, idx, prev, id)
				}
				zeroID[idx] = id
			}
			wantTri := triUnknown
			switch {
			case id >= 0:
				wantTri = s.tri[id]
			case s.complete:
				wantTri = triFalse
			}
			if got := te.setTri[idx](key); got != wantTri {
				t.Fatalf("%s: set %d key %v: triEnv %v, binding %v", label, idx, v, got, wantTri)
			}
			member := id >= 0 && s.point[id]
			reps := eng.bind.setReps(idx, s.keys.repID(key))
			want := make([]string, n)
			for j := range want {
				m := member
				if j > 0 {
					m = reps != nil && reps[j-1]
				}
				want[j] = fmt.Sprint(m)
			}
			sp := &expr.SetParam{Idx: idx, X: &expr.Const{V: v}}
			for j := 0; j < n; j++ {
				ctx := pctx
				if j > 0 {
					ctx = tctx[j]
				}
				got := sp.Eval(ctx)
				if v.IsNull() {
					if !got.IsNull() {
						t.Fatalf("%s: set %d: NULL subject reads %v", label, idx, got)
					}
					continue
				}
				if fmt.Sprint(got.Bool()) != want[j] {
					t.Fatalf("%s: set %d key %v lane %d: interpreter %v, binding %s", label, idx, v, j, got, want[j])
				}
			}
			if v.IsNull() {
				for j := range want {
					want[j] = "NULL"
				}
			}
			node := &tvSet{p: &expr.SetParam{Idx: idx, X: kcol}, t: make([]uint8, n)}
			check(fmt.Sprintf("set %d", idx), v, want, func(keys *tvKeys) ([]string, bool) {
				node.keys = keys
				tr, ok := node.tri(env, 0, n)
				out := make([]string, n)
				for j := range out {
					switch {
					case !ok:
					case tr[j] == expr.TriNull:
						out[j] = "NULL"
					default:
						out[j] = fmt.Sprint(tr[j] == expr.TriTrue)
					}
				}
				return out, ok
			})
		}
	}
	for idx, g := range eng.bind.groups {
		for _, v := range hostileDomain() {
			key := types.Row{v}
			id := g.lookup(key)
			if v.Kind() == types.KindFloat && v.Float() == 0 {
				if prev, ok := zeroID[-1-idx]; ok && prev != id {
					t.Fatalf("%s: group %d: −0.0 and 0.0 resolve to ids %d and %d", label, idx, prev, id)
				}
				zeroID[-1-idx] = id
			}
			wantRng := paramRange{status: rsUnknown}
			switch {
			case id >= 0:
				wantRng = g.rng[id]
			case g.complete:
				wantRng = paramRange{status: rsNull}
			}
			if got := te.groupRanges[idx](key); got.status != wantRng.status ||
				!sameBits(got.r.Lo, wantRng.r.Lo) || !sameBits(got.r.Hi, wantRng.r.Hi) {
				t.Fatalf("%s: group %d key %v: triEnv %+v, binding %+v", label, idx, v, got, wantRng)
			}
			point := types.Null
			if id >= 0 {
				point = g.point[id]
			}
			reps := eng.bind.groupReps(idx, g.keys.repID(key))
			want := make([]string, n)
			for j := range want {
				lane := point
				if j > 0 {
					lane = types.Null
					if reps != nil {
						lane = reps[j-1]
					}
				}
				want[j] = laneString(lane)
			}
			gp := &expr.GroupParam{Idx: idx, Keys: []expr.Expr{&expr.Const{V: v}}}
			for j := 0; j < n; j++ {
				ctx := pctx
				if j > 0 {
					ctx = tctx[j]
				}
				if got := laneString(gp.Eval(ctx)); got != want[j] {
					t.Fatalf("%s: group %d key %v lane %d: interpreter %s, binding %s", label, idx, v, j, got, want[j])
				}
			}
			node := &tvGroup{p: &expr.GroupParam{Idx: idx, Keys: []expr.Expr{kcol}},
				f: make([]float64, n), null: make([]bool, n)}
			check(fmt.Sprintf("group %d", idx), v, want, func(keys *tvKeys) ([]string, bool) {
				node.keys = keys
				f, null, ok := node.num(env, 0, n)
				out := make([]string, n)
				for j := range out {
					if ok {
						out[j] = laneString(types.NewFloat(f[j]))
						if null[j] {
							out[j] = "NULL"
						}
					}
				}
				return out, ok
			})
		}
	}
	checkHostileKernels(t, label, eng, root, ct, te, pctx)
}

// checkHostileKernels compiles the root's uncertain predicate into a
// tri-state kernel twice: in a classification epoch under te, every
// decision must be te.evalTri's; in a point epoch, every decided row
// must be the predicate's SQL truth under the point bindings.
func checkHostileKernels(t *testing.T, label string, eng *Engine, root *blockRunner,
	ct *colstore.Table, te *triEnv, pctx *expr.Ctx) {
	t.Helper()
	where := root.uncertainWhere
	k := expr.CompileTriKernel(where, ct)
	if k == nil || len(k.Keyed()) == 0 {
		t.Fatalf("%s: %s compiles to no keyed kernel", label, where)
	}
	k.SetResolver(keyedResolver(k.Keyed(), &te, ct))
	bindTri(k, te)
	out := make([]uint8, ct.SegSize)
	for _, seg := range ct.Segs {
		k.EvalInto(out, seg, 0, seg.N)
		for i := 0; i < seg.N; i++ {
			if want := te.evalTri(where, seg.Rows[i]); out[i] != uint8(want) {
				t.Fatalf("%s: kernel %d, triEnv %d on row %v", label, out[i], want, seg.Rows[i])
			}
		}
	}
	pk := expr.CompileTriKernel(where, ct)
	pe := eng.bind.newPointEnv()
	eng.bind.refreshPointEnv(pe)
	pk.SetResolver(keyedResolver(pk.Keyed(), &pe, ct))
	bindTri(pk, pe)
	for _, seg := range ct.Segs {
		pk.EvalInto(out, seg, 0, seg.N)
		for i := 0; i < seg.N; i++ {
			if out[i] == expr.TriNull {
				continue
			}
			pctx.Row = seg.Rows[i]
			v := where.Eval(pctx)
			if want := triOfBool(!v.IsNull() && v.Truthy()); out[i] != want {
				t.Fatalf("%s: point kernel %d, SQL truth %v on row %v", label, out[i], v, seg.Rows[i])
			}
		}
	}
}

// wordOf is a key value's stored word (its float bits; NULL apart).
func wordOf(v types.Value) uint64 {
	if v.IsNull() {
		return 1<<64 - 1
	}
	return math.Float64bits(v.Float())
}

// laneString renders a lane value bit-exactly.
func laneString(v types.Value) string {
	if v.IsNull() {
		return "NULL"
	}
	f, _ := v.AsFloat()
	return fmt.Sprintf("%x", math.Float64bits(f))
}
