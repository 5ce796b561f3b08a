package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/colstore"
	"fluodb/internal/expr"
	"fluodb/internal/sqlparser"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// The tri-state classification kernel (expr.CompileTriKernel) must be
// decision-identical to the engine's per-row evalTri for every row of
// every segment — including NULLs in measure and key columns, string
// columns on a comparison side, Kleene AND/OR/NOT combinations,
// param-free collapsed subtrees, and NULL/unknown injected parameter
// ranges. The property test below sweeps that matrix over generated
// catalogs with open-tail segments.

// triParityExprs enumerates the compilable predicate shapes. Columns:
// a string(0), b int-with-NULLs(1), x float-with-NULLs(2), s string(3).
func triParityExprs() []struct {
	name  string
	slots int
	e     expr.Expr
} {
	xcol := &expr.Col{Idx: 2, Name: "x", Typ: types.KindFloat}
	bcol := &expr.Col{Idx: 1, Name: "b", Typ: types.KindInt}
	scol := &expr.Col{Idx: 3, Name: "s", Typ: types.KindString}
	p0 := &expr.ScalarParam{Idx: 0}
	p1 := &expr.ScalarParam{Idx: 1}
	scaled := &expr.Binary{Op: sqlparser.OpMul,
		L: &expr.Const{V: types.NewFloat(0.9)}, R: p0}
	cmp := func(op sqlparser.BinaryOp, l, r expr.Expr) expr.Expr {
		return &expr.Binary{Op: op, L: l, R: r}
	}
	return []struct {
		name  string
		slots int
		e     expr.Expr
	}{
		{"x<0.9p", 1, cmp(sqlparser.OpLt, xcol, scaled)},
		{"x<=p", 1, cmp(sqlparser.OpLe, xcol, p0)},
		{"x>p", 1, cmp(sqlparser.OpGt, xcol, p0)},
		{"x>=p", 1, cmp(sqlparser.OpGe, xcol, p0)},
		{"x=p", 1, cmp(sqlparser.OpEq, xcol, p0)},
		{"x!=p", 1, cmp(sqlparser.OpNe, xcol, p0)},
		{"b>=p", 1, cmp(sqlparser.OpGe, bcol, p0)},
		// String column on a comparison side: non-NULL is range-unknown
		// (the row path's AsFloat failure), NULL is SQL false.
		{"s<p", 1, cmp(sqlparser.OpLt, scol, p0)},
		// Kleene combinations, including a two-slot conjunction.
		{"and", 2, &expr.Binary{Op: sqlparser.OpAnd,
			L: cmp(sqlparser.OpLt, xcol, p0), R: cmp(sqlparser.OpGt, bcol, p1)}},
		{"or-not", 2, &expr.Binary{Op: sqlparser.OpOr,
			L: &expr.Not{X: cmp(sqlparser.OpGe, xcol, p0)},
			R: cmp(sqlparser.OpEq, bcol, p1)}},
		// Param-free subtree collapsed through the certain kernel
		// (dictionary string equality), AND-ed with an interval compare.
		{"collapse-and", 1, &expr.Binary{Op: sqlparser.OpAnd,
			L: cmp(sqlparser.OpEq, scol, &expr.Const{V: types.NewString("alpha")}),
			R: cmp(sqlparser.OpLt, xcol, scaled)}},
		// Param-bearing node outside the compilable comparisons: the row
		// path answers triUnknown row-independently; the kernel must too.
		{"bare-param", 1, p0},
		{"param-arith", 1, &expr.Binary{Op: sqlparser.OpAdd, L: p0,
			R: &expr.Const{V: types.NewFloat(1)}}},
	}
}

// triParityRanges are the injected slot-range regimes, combined
// pairwise for two-slot expressions.
var triParityRanges = []struct {
	name string
	pr   paramRange
}{
	{"wide", paramRange{r: bootstrap.Range{Lo: 450, Hi: 520}, status: rsOK}},
	{"point", paramRange{r: bootstrap.Range{Lo: 500, Hi: 500}, status: rsOK}},
	{"low", paramRange{r: bootstrap.Range{Lo: 2, Hi: 9}, status: rsOK}},
	{"null", paramRange{status: rsNull}},
	{"unknown", paramRange{status: rsUnknown}},
	// NaN bounds decide nothing a comparison with NaN would not.
	{"nan", paramRange{r: bootstrap.Range{Lo: math.NaN(), Hi: math.NaN()}, status: rsOK}},
	{"nan-hi", paramRange{r: bootstrap.Range{Lo: 3, Hi: math.NaN()}, status: rsOK}},
}

// TestTriKernelParity pins kernel-vs-evalTri decision identity across
// the expression × range matrix, on a catalog sized so the last segment
// is an open (partially filled) tail, and across the keyed matrix.
func TestTriKernelParity(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		// 2000 and 3100 are not multiples of the segment size, so the
		// sweep always crosses an open-tail segment.
		cat := columnarCatalog(2000+int(seed)*100, seed)
		tbl, _ := cat.Get("facts")
		ct := tbl.Columnar()
		for _, tc := range triParityExprs() {
			k := expr.CompileTriKernel(tc.e, ct)
			if k == nil {
				t.Fatalf("%s: kernel should compile", tc.name)
			}
			for _, r0 := range triParityRanges {
				ranges := []paramRange{r0.pr, {r: bootstrap.Range{Lo: 4, Hi: 7}, status: rsOK}}
				rname := r0.name
				if tc.slots == 2 {
					// Two-slot expressions additionally sweep the second
					// slot through the regimes.
					for _, r1 := range triParityRanges {
						ranges2 := []paramRange{r0.pr, r1.pr}
						runTriParity(t, fmt.Sprintf("%s/%s+%s", tc.name, r0.name, r1.name),
							tc.e, k, ct, ranges2)
					}
					continue
				}
				runTriParity(t, tc.name+"/"+rname, tc.e, k, ct, ranges)
			}
		}
	}
	t.Run("keyed", testTriKernelKeyedParity)
}

func runTriParity(t *testing.T, name string, e expr.Expr, k *expr.TriKernel,
	ct *colstore.Table, ranges []paramRange) {
	t.Helper()
	te := &triEnv{pointCtx: &expr.Ctx{}, scalarRanges: ranges}
	for s, pe := range k.Slots() {
		pr := te.evalRange(pe, nil)
		k.SetRange(s, pr.r.Lo, pr.r.Hi, uint8(pr.status))
	}
	out := make([]uint8, ct.SegSize)
	for _, seg := range ct.Segs {
		k.EvalInto(out, seg, 0, seg.N)
		for i := 0; i < seg.N; i++ {
			want := te.evalTri(e, seg.Rows[i])
			if int(out[i]) != int(want) {
				t.Fatalf("%s: seg base %d row %d: kernel %d want %d (row %v)",
					name, seg.Base, i, out[i], want, seg.Rows[i])
			}
		}
	}
}

// TestTriKernelRefusals pins the shapes that must stay on the per-row
// path: a parameter side (or membership subject) reading two columns
// has no single key, a mixed column has no typed bank to key by, and a
// dimension column is not in the fact encoding the kernel sweeps.
func TestTriKernelRefusals(t *testing.T) {
	cat := columnarCatalog(1024, 3)
	tbl, _ := cat.Get("facts")
	ct := tbl.Columnar()
	xcol := &expr.Col{Idx: 2, Name: "x", Typ: types.KindFloat}
	bcol := &expr.Col{Idx: 1, Name: "b", Typ: types.KindInt}
	acol := &expr.Col{Idx: 0, Name: "a", Typ: types.KindString}
	lt := func(l, r expr.Expr) expr.Expr { return &expr.Binary{Op: sqlparser.OpLt, L: l, R: r} }
	add := func(l, r expr.Expr) expr.Expr { return &expr.Binary{Op: sqlparser.OpAdd, L: l, R: r} }
	group := func(keys ...expr.Expr) expr.Expr { return &expr.GroupParam{Idx: 0, Keys: keys} }
	for _, tc := range []struct {
		name string
		e    expr.Expr
	}{
		{"two-column param side", lt(xcol, add(group(bcol), xcol))},
		{"two-key group param", lt(xcol, group(bcol, acol))},
		{"two-column membership subject", &expr.SetParam{Idx: 0, X: add(bcol, xcol)}},
		{"keyless group param", lt(xcol, group(&expr.Const{V: types.NewInt(1)}))},
		{"dim-column key", lt(xcol, group(&expr.Col{Idx: 4, Name: "cat", Typ: types.KindString}))},
		{"dim-column membership", &expr.SetParam{Idx: 0, X: &expr.Col{Idx: 5, Name: "bkey", Typ: types.KindInt}}},
	} {
		if k := expr.CompileTriKernel(tc.e, ct); k != nil {
			t.Errorf("%s: %s must refuse compilation", tc.name, tc.e)
		}
	}
	// A mixed column (a stray string among ints) has no typed bank.
	mixed := storage.NewTable("m", types.NewSchema("b", types.KindInt, "x", types.KindFloat))
	for i := 0; i < 100; i++ {
		_ = mixed.Append(types.Row{types.NewInt(int64(i % 7)), types.NewFloat(float64(i))})
	}
	_ = mixed.Append(types.Row{types.NewString("stray"), types.NewFloat(1)})
	mct := mixed.Columnar()
	if !mct.Mixed[0] {
		t.Fatal("fixture column b is not mixed")
	}
	mb := &expr.Col{Idx: 0, Name: "b", Typ: types.KindInt}
	mx := &expr.Col{Idx: 1, Name: "x", Typ: types.KindFloat}
	for _, e := range []expr.Expr{lt(mx, group(mb)), &expr.SetParam{Idx: 0, X: mb}} {
		if k := expr.CompileTriKernel(e, mct); k != nil {
			t.Errorf("mixed key column: %s must refuse compilation", e)
		}
	}
}

// Keyed slots: parameter subtrees that read one clean column (a
// correlated group param keyed by it, set membership on it, a scalar
// param plus it) resolve once per key per epoch through the engine's own
// interpreter. The matrix below pins that the kernel's bytes equal
// evalTri row for row — over whole segments and over gathered row
// subsets (the uncertain cache) — for int, float (±0, NaN, ±Inf) and
// dictionary-string keys, NULL keys, keys absent from the binding with
// the nested table complete or not, and across epochs whose bindings
// move.

// keyedSchema: a dictionary-string key (a), an int key with NULLs (b),
// an integral float measure with NULLs (x), a string (s) and a float key
// over special values with NULLs (f).
var keyedSchema = types.NewSchema(
	"a", types.KindString, "b", types.KindInt, "x", types.KindFloat,
	"s", types.KindString, "f", types.KindFloat,
)

var (
	keyedAs = []string{"aa", "bb", "cc", "dd", "ee"}
	keyedFs = []float64{0, math.Copysign(0, -1), 1.5, -2, 3, math.NaN(), math.Inf(1), math.Inf(-1)}
	keyedSs = []string{"alpha", "beta", ""}
)

// keyedTable builds n rows under keyedSchema in small segments, so
// sweeps cross many segments and an open tail. Every third segment holds
// no NULL, so the kernels' NULL-free column loops run too.
func keyedTable(rng *rand.Rand, n int) *colstore.Table {
	rows := make([]types.Row, n)
	for i := range rows {
		nullFree := i/64%3 == 1
		row := types.Row{
			types.NewString(keyedAs[rng.Intn(len(keyedAs))]),
			types.NewInt(int64(rng.Intn(12))),
			types.NewFloat(float64(rng.Intn(1000))),
			types.NewString(keyedSs[rng.Intn(len(keyedSs))]),
			types.NewFloat(keyedFs[rng.Intn(len(keyedFs))]),
		}
		for c := 1; c < len(row); c++ {
			if c != 3 && !nullFree && rng.Intn(15) == 0 {
				row[c] = types.Null
			}
		}
		rows[i] = row
	}
	return colstore.Build(keyedSchema, rows, 64)
}

// keyedBinding is a generated state of three group params (keyed by a,
// b, f) and three set params (members over a, b, f): per-key variation
// ranges and membership tris, with some keys absent.
type keyedBinding struct {
	group    [3]map[string]paramRange
	set      [3]map[string]tri
	complete bool
}

// keyedDomain lists each key column's possible values, NULL included.
func keyedDomain() [3][]types.Value {
	var d [3][]types.Value
	for _, a := range keyedAs {
		d[0] = append(d[0], types.NewString(a))
	}
	for b := 0; b < 12; b++ {
		d[1] = append(d[1], types.NewInt(int64(b)))
	}
	for _, f := range keyedFs {
		d[2] = append(d[2], types.NewFloat(f))
	}
	for k := range d {
		d[k] = append(d[k], types.Null)
	}
	return d
}

func newKeyedBinding(rng *rand.Rand, complete bool) *keyedBinding {
	kb := &keyedBinding{complete: complete}
	for k, vals := range keyedDomain() {
		kb.group[k] = map[string]paramRange{}
		kb.set[k] = map[string]tri{}
		for _, v := range vals {
			key := types.KeyString1(v)
			switch rng.Intn(6) {
			case 0: // absent
			case 1:
				kb.group[k][key] = paramRange{status: rsNull}
			case 2:
				kb.group[k][key] = paramRange{status: rsUnknown}
			default:
				c := float64(rng.Intn(1000))
				w := float64(rng.Intn(3)) * float64(rng.Intn(200))
				kb.group[k][key] = okRange(bootstrap.Range{Lo: c - w, Hi: c + w})
			}
			if m := rng.Intn(4); m < 3 {
				kb.set[k][key] = tri(m)
			}
		}
	}
	return kb
}

// env is the triEnv the engine's bindings would present for kb.
func (kb *keyedBinding) env(scalars []paramRange) *triEnv {
	te := &triEnv{pointCtx: &expr.Ctx{}, scalarRanges: scalars}
	for k := range kb.group {
		g, s := kb.group[k], kb.set[k]
		te.groupRanges = append(te.groupRanges, func(key types.Row) paramRange {
			if r, ok := g[keyString(key)]; ok {
				return r
			}
			if kb.complete {
				return paramRange{status: rsNull}
			}
			return paramRange{status: rsUnknown}
		})
		te.setTri = append(te.setTri, func(key types.Row) tri {
			if t, ok := s[keyString(key)]; ok {
				return t
			}
			if kb.complete {
				return triFalse
			}
			return triUnknown
		})
	}
	return te
}

// Keyed-parity expression builders over keyedSchema.
var (
	kA = &expr.Col{Idx: 0, Name: "a", Typ: types.KindString}
	kB = &expr.Col{Idx: 1, Name: "b", Typ: types.KindInt}
	kX = &expr.Col{Idx: 2, Name: "x", Typ: types.KindFloat}
	kS = &expr.Col{Idx: 3, Name: "s", Typ: types.KindString}
	kF = &expr.Col{Idx: 4, Name: "f", Typ: types.KindFloat}
	// kKeys[k] is group/set param k's key column.
	kKeys = []*expr.Col{kA, kB, kF}
)

func kGroup(k int) expr.Expr { return &expr.GroupParam{Idx: k, Keys: []expr.Expr{kKeys[k]}} }
func kSet(k int, neg bool) expr.Expr {
	return &expr.SetParam{Idx: k, X: kKeys[k], Negated: neg}
}
func kCmp(op sqlparser.BinaryOp, l, r expr.Expr) expr.Expr { return &expr.Binary{Op: op, L: l, R: r} }
func kMul(c float64, e expr.Expr) expr.Expr {
	return &expr.Binary{Op: sqlparser.OpMul, L: &expr.Const{V: types.NewFloat(c)}, R: e}
}
func kAdd(l, r expr.Expr) expr.Expr { return &expr.Binary{Op: sqlparser.OpAdd, L: l, R: r} }

func keyedParityExprs() []struct {
	name string
	e    expr.Expr
} {
	p0, p1 := &expr.ScalarParam{Idx: 0}, &expr.ScalarParam{Idx: 1}
	and := func(l, r expr.Expr) expr.Expr { return kCmp(sqlparser.OpAnd, l, r) }
	or := func(l, r expr.Expr) expr.Expr { return kCmp(sqlparser.OpOr, l, r) }
	return []struct {
		name string
		e    expr.Expr
	}{
		{"int-key", kCmp(sqlparser.OpLt, kX, kMul(0.5, kGroup(1)))},
		{"string-key", kCmp(sqlparser.OpGe, kX, kGroup(0))},
		{"float-key", kCmp(sqlparser.OpGt, kX, kGroup(2))},
		{"float-key-eq", kCmp(sqlparser.OpEq, kX, kGroup(2))},
		{"int-key-ne", kCmp(sqlparser.OpNe, kX, kGroup(1))},
		{"param-left", kCmp(sqlparser.OpGt, kMul(2, kGroup(1)), kX)},
		{"key-vs-own-key", kCmp(sqlparser.OpLe, kB, kGroup(1))},
		{"arith-keyed", kCmp(sqlparser.OpLt, kX, kAdd(kGroup(1), kB))},
		{"scalar-plus-col", kCmp(sqlparser.OpLe, kX, kAdd(p0, kB))},
		{"in-int", kSet(1, false)},
		{"not-in-int", kSet(1, true)},
		{"in-string", kSet(0, false)},
		{"in-float", kSet(2, false)},
		{"not-in-float", &expr.Not{X: kSet(2, false)}},
		{"and-scalar-set", and(kCmp(sqlparser.OpLt, kX, kMul(0.9, p0)), kSet(1, false))},
		{"or-keyed-scalar", or(&expr.Not{X: kCmp(sqlparser.OpGe, kX, kGroup(1))},
			kCmp(sqlparser.OpEq, kB, p1))},
		{"and-set-or-collapse", and(kSet(0, false), or(kCmp(sqlparser.OpLt, kX, kGroup(2)),
			kCmp(sqlparser.OpEq, kS, &expr.Const{V: types.NewString("alpha")})))},
	}
}

// checkTriParity binds k to te for a fresh epoch and compares its bytes
// with evalTri: every row of every segment, then a gathered ascending
// row subset (with repeats, as a dims block caches one row per joined
// row) of each segment.
func checkTriParity(t *testing.T, name string, e expr.Expr, k *expr.TriKernel,
	ct *colstore.Table, te *triEnv, rng *rand.Rand) {
	t.Helper()
	env := te
	k.SetResolver(keyedResolver(k.Keyed(), &env, ct))
	bindTri(k, te)
	out := make([]uint8, ct.SegSize)
	var rows []int32
	for _, seg := range ct.Segs {
		k.EvalInto(out, seg, 0, seg.N)
		for i := 0; i < seg.N; i++ {
			if want := te.evalTri(e, seg.Rows[i]); int(out[i]) != int(want) {
				t.Fatalf("%s: seg base %d row %d: kernel %d want %d (row %v)",
					name, seg.Base, i, out[i], want, seg.Rows[i])
			}
		}
		rows = rows[:0]
		for i := 0; i < seg.N && len(rows) < ct.SegSize; i++ {
			for n := rng.Intn(4) - 1; n > 0 && len(rows) < ct.SegSize; n-- {
				rows = append(rows, int32(i))
			}
		}
		k.EvalRows(out, seg, rows)
		for j, i := range rows {
			if want := te.evalTri(e, seg.Rows[i]); int(out[j]) != int(want) {
				t.Fatalf("%s: gathered seg base %d row %d: kernel %d want %d (row %v)",
					name, seg.Base, i, out[j], want, seg.Rows[i])
			}
		}
	}
}

// testTriKernelKeyedParity is TestTriKernelParity's keyed matrix: each
// expression's kernel is reused across bindings that move between
// epochs, with the nested tables incomplete and complete, and scalar
// ranges through their regimes.
func testTriKernelKeyedParity(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		rng := rand.New(rand.NewSource(seed))
		ct := keyedTable(rng, 700)
		for _, tc := range keyedParityExprs() {
			k := expr.CompileTriKernel(tc.e, ct)
			if k == nil {
				t.Fatalf("%s: kernel should compile", tc.name)
			}
			if len(k.Keyed()) == 0 {
				t.Fatalf("%s: no keyed slot", tc.name)
			}
			decided := 0
			for epoch, r0 := range triParityRanges {
				for _, complete := range []bool{false, true} {
					kb := newKeyedBinding(rng, complete)
					te := kb.env([]paramRange{r0.pr, triParityRanges[(epoch+2)%len(triParityRanges)].pr})
					checkTriParity(t, fmt.Sprintf("%s/seed=%d/%s/complete=%v", tc.name, seed, r0.name, complete),
						tc.e, k, ct, te, rng)
				}
				// A point epoch on the same kernel, between classification
				// epochs, as a snapshot's point pass runs it.
				decided += checkPointParity(t, fmt.Sprintf("%s/seed=%d/point=%d", tc.name, seed, epoch),
					tc.e, k, ct, newPointBinding(rng), rng)
			}
			if decided == 0 {
				t.Fatalf("%s/seed=%d: the point epochs decided no row", tc.name, seed)
			}
		}
	}
}

// TestTriKernelColumnSides pins the column-against-slot loops: an int, a
// float and a special-valued float column on either side of each
// operator against a scalar slot (plain, or scaled by a special
// constant), with and without NOT, under every range regime, over
// segments with and without NULLs — whole segments (EvalInto) and
// gathered rows (EvalRows) against evalTri.
func TestTriKernelColumnSides(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ct := keyedTable(rng, 260) // an open tail past four full segments
	nullFree := 0
	for _, seg := range ct.Segs {
		if !seg.Cols[1].HasNulls() && !seg.Cols[2].HasNulls() && !seg.Cols[4].HasNulls() {
			nullFree++
		}
	}
	if nullFree == 0 || nullFree == len(ct.Segs) {
		t.Fatalf("%d of %d segments NULL-free; both kinds must occur", nullFree, len(ct.Segs))
	}
	p0 := &expr.ScalarParam{Idx: 0}
	sides := []expr.Expr{p0}
	for _, c := range []types.Value{types.NewFloat(math.NaN()), types.Null, types.NewFloat(math.Inf(1)),
		types.NewFloat(math.Copysign(0, -1)), types.NewInt(2)} {
		sides = append(sides, &expr.Binary{Op: sqlparser.OpMul, L: &expr.Const{V: c}, R: p0})
	}
	ops := []sqlparser.BinaryOp{sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt,
		sqlparser.OpGe, sqlparser.OpEq, sqlparser.OpNe}
	for _, col := range []*expr.Col{kB, kX, kF} {
		for _, side := range sides {
			for _, op := range ops {
				for _, colLeft := range []bool{true, false} {
					e := kCmp(op, side, col)
					if colLeft {
						e = kCmp(op, col, side)
					}
					for _, not := range []bool{false, true} {
						if not {
							e = &expr.Not{X: e}
						}
						k := expr.CompileTriKernel(e, ct)
						if k == nil {
							t.Fatalf("%s: kernel should compile", e)
						}
						for _, r := range triParityRanges {
							te := (&keyedBinding{}).env([]paramRange{r.pr})
							checkTriParity(t, fmt.Sprintf("%s/%s", e, r.name), e, k, ct, te, rng)
						}
					}
				}
			}
		}
	}
}

// fuzzTriTree draws a predicate over keyedSchema: Kleene combinations
// of comparisons whose sides are columns (the float column f holding
// NaN, ±Inf and ±0), constants, scalar params (scaled, also by NaN,
// NULL, +Inf and −0), keyed group params (scaled, or plus their key
// column) and two-column param sides (which refuse), set memberships,
// param-free comparisons and bare params.
func fuzzTriTree(pick func(int) int, depth int) expr.Expr {
	if depth > 0 && pick(3) != 0 {
		l := fuzzTriTree(pick, depth-1)
		switch pick(3) {
		case 0:
			return kCmp(sqlparser.OpAnd, l, fuzzTriTree(pick, depth-1))
		case 1:
			return kCmp(sqlparser.OpOr, l, fuzzTriTree(pick, depth-1))
		default:
			return &expr.Not{X: l}
		}
	}
	ops := []sqlparser.BinaryOp{sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt,
		sqlparser.OpGe, sqlparser.OpEq, sqlparser.OpNe}
	// Special constants scale a scalar param into a NaN-bounded, NULL or
	// unbounded slot.
	specials := []types.Value{types.NewFloat(math.NaN()), types.Null,
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Copysign(0, -1))}
	side := func() expr.Expr {
		switch pick(10) {
		case 0:
			return kX
		case 1:
			return kB
		case 2:
			return &expr.Const{V: types.NewFloat(float64(pick(1000)))}
		case 3:
			return kMul(0.5+float64(pick(3)), &expr.ScalarParam{Idx: pick(2)})
		case 4:
			return kMul(0.5+float64(pick(3)), kGroup(pick(3)))
		case 5:
			k := pick(3)
			return kAdd(kGroup(k), kKeys[k])
		case 6:
			return kAdd(&expr.ScalarParam{Idx: pick(2)}, kKeys[pick(3)])
		case 7:
			return kAdd(kGroup(pick(3)), kX) // two columns: refuses
		case 8:
			return kF // NaN, ±Inf and ±0 values
		default:
			return &expr.Binary{Op: sqlparser.OpMul, L: &expr.Const{V: specials[pick(len(specials))]},
				R: &expr.ScalarParam{Idx: pick(2)}}
		}
	}
	switch pick(4) {
	case 0, 1:
		return kCmp(ops[pick(len(ops))], side(), side())
	case 2:
		return kSet(pick(3), pick(2) == 1)
	default:
		if pick(2) == 0 {
			return &expr.ScalarParam{Idx: 0}
		}
		return kCmp(ops[pick(len(ops))], kX, &expr.Const{V: types.NewFloat(float64(pick(1000)))})
	}
}

// FuzzTriKernel: a predicate, a table and a sequence of bindings drawn
// from the input must classify identically through the kernel and
// evalTri, over whole segments and gathered row subsets. The seed corpus
// runs under plain go test.
func FuzzTriKernel(f *testing.F) {
	for _, seed := range [][]byte{
		{}, {1, 2, 3, 4, 5, 6, 7, 8}, {9, 1, 4, 0, 3, 3, 2, 200, 17, 4, 4},
		{2, 2, 4, 1, 0, 5, 2, 3, 1, 1, 7, 6, 5, 4, 3},
		{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244},
		{1, 1, 0, 0, 5, 1, 2, 2, 6, 0, 2, 1, 2, 1, 4, 3, 1, 0, 9},
	} {
		f.Add(uint8(3), uint16(300), seed)
	}
	f.Fuzz(func(t *testing.T, depth uint8, nrows uint16, data []byte) {
		src := &byteSource{b: data}
		e := fuzzTriTree(src.pick, int(depth%4))
		seed := int64(nrows)
		for _, c := range data {
			seed = seed*131 + int64(c)
		}
		rng := rand.New(rand.NewSource(seed))
		ct := keyedTable(rng, 1+int(nrows%700))
		k := expr.CompileTriKernel(e, ct)
		if k == nil {
			return // a two-column param side: the interpreter's case
		}
		for epoch := 0; epoch < 3; epoch++ {
			kb := newKeyedBinding(rng, epoch == 2)
			scalars := []paramRange{
				triParityRanges[rng.Intn(len(triParityRanges))].pr,
				triParityRanges[rng.Intn(len(triParityRanges))].pr,
			}
			checkTriParity(t, fmt.Sprintf("%s/epoch=%d", e, epoch), e, k, ct, kb.env(scalars), rng)
			checkPointParity(t, fmt.Sprintf("%s/point=%d", e, epoch), e, k, ct, newPointBinding(rng), rng)
		}
	})
}

// newPointBinding draws point bindings over keyedDomain for two scalar,
// three group and three set params: float, NULL or (to exercise a point
// the point environment leaves unknown) integer values, with keys
// absent.
func newPointBinding(rng *rand.Rand) *bindings {
	b := newBindings(2, 3, 3, 0)
	value := func() types.Value {
		switch rng.Intn(8) {
		case 0:
			return types.Null
		case 1:
			return types.NewInt(int64(rng.Intn(1000)))
		case 2:
			return types.NewFloat(math.NaN())
		default:
			return types.NewFloat(float64(rng.Intn(1000)) - 0.5*float64(rng.Intn(2)))
		}
	}
	for _, s := range b.scalars {
		s.point = value()
	}
	for k, vals := range keyedDomain() {
		for _, v := range vals {
			if rng.Intn(5) > 0 {
				b.groups[k].publishKey(v, value(), paramRange{status: rsUnknown})
			}
			if rng.Intn(5) > 0 {
				b.sets[k].publishKey(v, rng.Intn(2) == 0, triUnknown)
			}
		}
	}
	return b
}

// checkPointParity binds k to a point epoch over pb, as the snapshot
// point pass does, and checks every decided byte against the
// interpreter's SQL truth under pb's points: TriTrue exactly where the
// predicate is TRUE, TriFalse where it is FALSE or NULL — over whole
// segments and gathered row subsets. Undecided rows make no claim; it
// returns how many rows were decided.
func checkPointParity(t *testing.T, name string, e expr.Expr, k *expr.TriKernel,
	ct *colstore.Table, pb *bindings, rng *rand.Rand) int {
	t.Helper()
	pe := pb.newPointEnv()
	pb.refreshPointEnv(pe)
	k.SetResolver(keyedResolver(k.Keyed(), &pe, ct))
	bindTri(k, pe)
	ctx := pb.newPointCtx()
	for i, s := range pb.scalars {
		ctx.Scalars[i] = s.point
	}
	decided := 0
	check := func(d uint8, row types.Row, where string) {
		if d == expr.TriNull {
			return
		}
		decided++
		ctx.Row = row
		v := e.Eval(ctx)
		if want := triOfBool(!v.IsNull() && v.Truthy()); d != want {
			t.Fatalf("%s: %s: point kernel %d, SQL truth %v (row %v)", name, where, d, v, row)
		}
	}
	out := make([]uint8, ct.SegSize)
	var rows []int32
	for _, seg := range ct.Segs {
		k.EvalInto(out, seg, 0, seg.N)
		for i := 0; i < seg.N; i++ {
			check(out[i], seg.Rows[i], fmt.Sprintf("seg base %d row %d", seg.Base, i))
		}
		rows = rows[:0]
		for i := 0; i < seg.N; i++ {
			if rng.Intn(3) == 0 {
				rows = append(rows, int32(i))
			}
		}
		k.EvalRows(out, seg, rows)
		for j, i := range rows {
			check(out[j], seg.Rows[i], fmt.Sprintf("gathered seg base %d row %d", seg.Base, i))
		}
	}
	return decided
}

// TestPointEpochIntegerPastFloat: an integer point that a float cannot
// carry must decide nothing. Column b holds 2^53 and the points are
// 2^53+1, which SQL compares exactly (b < point is TRUE); read as a
// zero-width float range the point rounds to 2^53 and the kernel would
// decide FALSE.
func TestPointEpochIntegerPastFloat(t *testing.T) {
	const col, point = int64(1) << 53, int64(1)<<53 + 1
	rows := make([]types.Row, 150)
	for i := range rows {
		b := types.NewInt(col)
		if i%50 == 7 {
			b = types.Null
		}
		rows[i] = types.Row{types.NewString("aa"), b, types.NewFloat(1), types.NewString(""), types.NewFloat(0)}
	}
	ct := colstore.Build(keyedSchema, rows, 64)
	pb := newBindings(2, 3, 3, 0)
	pb.scalars[0].point = types.NewInt(point)
	pb.groups[1].publishKey(types.NewInt(col), types.NewInt(point), paramRange{status: rsUnknown})
	ctx := pb.newPointCtx()
	ctx.Scalars[0] = pb.scalars[0].point
	ctx.Row = rows[0]
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		e    expr.Expr
	}{
		{"scalar", kCmp(sqlparser.OpLt, kB, &expr.ScalarParam{Idx: 0})},
		{"keyed", kCmp(sqlparser.OpLt, kB, kGroup(1))},
		{"keyed-ne", kCmp(sqlparser.OpNe, kGroup(1), kB)},
	} {
		if v := tc.e.Eval(ctx); !v.Truthy() {
			t.Fatalf("%s: %s is %v on %v, want TRUE", tc.name, tc.e, v, rows[0])
		}
		k := expr.CompileTriKernel(tc.e, ct)
		if k == nil {
			t.Fatalf("%s: kernel should compile", tc.name)
		}
		checkPointParity(t, tc.name, tc.e, k, ct, pb, rng)
	}
}

// byteSource steers fuzzTriTree by the fuzz input.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) pick(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % n
}
