package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"fluodb/internal/colstore"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// The column-against-slot loops (triColCmp) must decide every row as
// the per-row comparison (triCmp.at) decides it over the same sides:
// int, bool and float columns holding the special values, NULL-free and
// NULL-bearing segments, both sides of every operator, both NOT
// polarities, and slot ranges that are OK (NaN, infinite, signed-zero
// and inverted bounds included), NULL or unknown — over segment
// subranges (eval) and gathered rows (gather).
func TestTriColCmpMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := types.NewSchema("i", types.KindInt, "f", types.KindFloat, "b", types.KindBool)
	rows := make([]types.Row, 1300)
	for r := range rows {
		rows[r] = types.Row{
			types.NewInt(nkInts[rng.Intn(len(nkInts))]),
			types.NewFloat(nkFlts[rng.Intn(len(nkFlts))]),
			types.NewBool(rng.Intn(2) == 0),
		}
		for c := range rows[r] {
			// Segment 1 (rows 512..1023) holds no NULL.
			if r/512 != 1 && rng.Intn(5) == 0 {
				rows[r][c] = types.Null
			}
		}
	}
	// 512-row segments: a gather of more than 256 rows takes two chunks.
	ct := colstore.Build(schema, rows, 512)
	if ct.Segs[1].Cols[0].HasNulls() || !ct.Segs[0].Cols[0].HasNulls() {
		t.Fatal("fixture needs a NULL-free and a NULL-bearing segment")
	}
	type rng3 struct {
		lo, hi float64
		status uint8
	}
	regimes := []rng3{{status: RangeNull}, {status: RangeUnknown}, {lo: 1, hi: 0, status: RangeOK}}
	for _, lo := range nkFlts {
		regimes = append(regimes, rng3{lo: lo, hi: lo, status: RangeOK})
		regimes = append(regimes, rng3{lo: lo, hi: nkFlts[rng.Intn(len(nkFlts))], status: RangeOK})
	}
	ops := []sqlparser.BinaryOp{sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt,
		sqlparser.OpGe, sqlparser.OpEq, sqlparser.OpNe}
	p := &ScalarParam{Idx: 0}
	out, want := make([]uint8, ct.SegSize), make([]uint8, ct.SegSize)
	rowIdx := make([]int32, 0, ct.SegSize)
	for c := range schema {
		col := &Col{Idx: c, Name: schema[c].Name, Typ: schema[c].Type}
		for _, op := range ops {
			for _, colLeft := range []bool{true, false} {
				e := &Binary{Op: op, L: p, R: col}
				if colLeft {
					e = &Binary{Op: op, L: col, R: p}
				}
				for _, neg := range []bool{false, true} {
					k := &TriKernel{st: &triState{epoch: 1}}
					fast, ok := k.compileTri(e, ct, neg).(*triColCmp)
					if !ok {
						t.Fatalf("%s: want the column loop", e)
					}
					g := &TriKernel{st: &triState{epoch: 1}}
					l, _ := g.makeSide(e.L, ct)
					r, _ := g.makeSide(e.R, ct)
					slow := &triCmp{op: op, l: l, r: r, st: g.st, null: nullTri(neg)}
					for _, rg := range regimes {
						k.SetRange(0, rg.lo, rg.hi, rg.status)
						g.SetRange(0, rg.lo, rg.hi, rg.status)
						name := fmt.Sprintf("%s neg=%v range=%v", e, neg, rg)
						for _, seg := range ct.Segs {
							lo := rng.Intn(seg.N)
							hi := lo + rng.Intn(seg.N-lo+1)
							if rng.Intn(2) == 0 {
								lo, hi = 0, seg.N
							}
							fast.eval(out, seg, lo, hi)
							slow.eval(want, seg, lo, hi)
							for i := lo; i < hi; i++ {
								if out[i] != want[i] {
									t.Fatalf("%s: seg %d row %d: loop %d, at %d", name, seg.Base, i, out[i], want[i])
								}
							}
							rowIdx = rowIdx[:0]
							for i := 0; i < seg.N; i++ {
								for n := rng.Intn(3); n > 0; n-- {
									rowIdx = append(rowIdx, int32(i))
								}
							}
							rowIdx = rowIdx[:min(len(rowIdx), ct.SegSize)]
							if len(rowIdx) == 0 {
								continue
							}
							fast.gather(out[:len(rowIdx)], seg, rowIdx)
							slow.gather(want[:len(rowIdx)], seg, rowIdx)
							for j, i := range rowIdx {
								if out[j] != want[j] {
									t.Fatalf("%s: gathered seg %d row %d: loop %d, at %d", name, seg.Base, i, out[j], want[j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTriColCmpShapes pins which comparisons take the column loop: a
// clean int, bool or float column against a slot, either way round;
// a string column or a keyed side keeps the per-row comparison.
func TestTriColCmpShapes(t *testing.T) {
	schema := types.NewSchema("i", types.KindInt, "f", types.KindFloat, "s", types.KindString)
	rows := []types.Row{{types.NewInt(1), types.NewFloat(2), types.NewString("x")}}
	ct := colstore.Build(schema, rows, 64)
	i := &Col{Idx: 0, Name: "i", Typ: types.KindInt}
	f := &Col{Idx: 1, Name: "f", Typ: types.KindFloat}
	s := &Col{Idx: 2, Name: "s", Typ: types.KindString}
	p := &Binary{Op: sqlparser.OpMul, L: &Const{V: types.NewFloat(0.5)}, R: &ScalarParam{Idx: 0}}
	keyed := &GroupParam{Idx: 0, Keys: []Expr{i}}
	for _, tc := range []struct {
		e    Expr
		fast bool
	}{
		{&Binary{Op: sqlparser.OpGt, L: f, R: p}, true},
		{&Binary{Op: sqlparser.OpLe, L: p, R: i}, true},
		{&Not{X: &Binary{Op: sqlparser.OpEq, L: i, R: p}}, true},
		{&Binary{Op: sqlparser.OpLt, L: s, R: p}, false},
		{&Binary{Op: sqlparser.OpLt, L: f, R: keyed}, false},
	} {
		k := CompileTriKernel(tc.e, ct)
		if k == nil {
			t.Fatalf("%s: kernel should compile", tc.e)
		}
		root := k.root
		if n, ok := root.(*triNot); ok {
			root = n.x
		}
		if _, fast := root.(*triColCmp); fast != tc.fast {
			t.Errorf("%s: column loop %v, want %v", tc.e, fast, tc.fast)
		}
	}
}

// BenchmarkTriKernelColSlot classifies SBI's shape, a float column
// against a scalar parameter's variation range (`x > $0`, the range
// [495, 505] over values uniform in [0, 1000), so about 1% of rows stay
// uncertain), in ns/row: whole segments (eval, new rows) and every
// third row of each segment (gather, a cached uncertain set re-examined
// in place).
func BenchmarkTriKernelColSlot(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]types.Row, 16*colstore.DefaultSegmentSize)
	for i := range rows {
		rows[i] = types.Row{types.NewFloat(float64(rng.Intn(100000)) / 100)}
	}
	ct := colstore.Build(types.NewSchema("x", types.KindFloat), rows, 0)
	e := &Binary{Op: sqlparser.OpGt, L: &Col{Idx: 0, Name: "x", Typ: types.KindFloat}, R: &ScalarParam{Idx: 0}}
	k := CompileTriKernel(e, ct)
	if k == nil {
		b.Fatal("did not compile to a tri kernel")
	}
	k.SetRange(0, 495, 505, RangeOK)
	out := make([]uint8, ct.SegSize)
	var every3 []int32
	for i := 0; i < ct.SegSize; i += 3 {
		every3 = append(every3, int32(i))
	}
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; {
			for _, seg := range ct.Segs {
				k.EvalInto(out, seg, 0, seg.N)
				if n += seg.N; n >= b.N {
					break
				}
			}
		}
	})
	b.Run("gather", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; {
			for _, seg := range ct.Segs {
				k.EvalRows(out, seg, every3)
				if n += len(every3); n >= b.N {
					break
				}
			}
		}
	})
}
