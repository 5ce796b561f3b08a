package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fluodb/internal/colstore"
	"fluodb/internal/expr"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// The trial-axis lowering of a WHERE program must give, lane for lane,
// the bytes of rowTri's per-lane interpreter loop: one interpreter walk
// per axis column, each under that column's point or trial bindings.
// TestTrialSweepParity holds it to that on comparisons of a column
// against a scalar parameter, a correlated parameter and a scaled
// correlated parameter, on either side of each of the six operators,
// with lanes holding NULL, NaN, ±Inf and −0 and rows whose column is
// NULL, reading the row by ordinal and from the row itself. A lane that
// is not a float (an integer estimate) must make the program refuse,
// and rowTri must then answer through the interpreter.

var tvSpecials = []types.Value{types.Null, types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)),
	types.NewFloat(math.Inf(-1)), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0),
	types.NewFloat(250), types.NewFloat(500), types.NewFloat(750)}

// tvFixture is a fact table tv(x FLOAT, b INT) and bindings of one
// scalar and one correlated parameter keyed by b, whose point and trial
// lanes are drawn from tvSpecials (unclean: one lane of each is an
// integer).
type tvFixture struct {
	rows []types.Row
	ct   *colstore.Table
	bind *bindings
}

func newTVFixture(rng *rand.Rand, trials int, unclean bool) *tvFixture {
	draw := func() types.Value { return tvSpecials[rng.Intn(len(tvSpecials))] }
	f := &tvFixture{}
	for i := 0; i < 200; i++ {
		b := types.NewInt(int64(rng.Intn(5)))
		if rng.Intn(8) == 0 {
			b = types.Null
		}
		f.rows = append(f.rows, types.Row{draw(), b})
	}
	f.ct = colstore.Build(types.NewSchema("x", types.KindFloat, "b", types.KindInt), f.rows, 64)
	b := newBindings(1, 1, 0, trials)
	s := b.scalars[0]
	s.point = draw()
	for j := range s.reps {
		s.reps[j] = draw()
	}
	// Keys 0..3 and NULL are published; key 4 is not (a NULL point, no
	// replica vector).
	reps := map[int][]types.Value{}
	g := b.groups[0]
	for _, key := range []types.Value{types.NewInt(0), types.NewInt(1), types.NewInt(2), types.NewInt(3), types.Null} {
		id := g.publishKey(key, draw(), paramRange{status: rsUnknown})
		vs := make([]types.Value, trials)
		for j := range vs {
			vs[j] = draw()
		}
		reps[id] = vs
	}
	if unclean {
		s.reps[rng.Intn(trials)] = types.NewInt(3)
		for _, vs := range reps {
			vs[rng.Intn(trials)] = types.NewInt(3)
		}
	}
	b.groupFill[0] = func(id int, dst []types.Value) { copy(dst, reps[id]) }
	f.bind = b
	return f
}

// tvShape is one parity predicate; inv marks a column side, which the
// lowering reads once as an invariant (tvCmpK).
type tvShape struct {
	name string
	e    expr.Expr
	inv  bool
}

func tvParityShapes() []tvShape {
	x := &expr.Col{Idx: 0, Name: "x", Typ: types.KindFloat}
	b := &expr.Col{Idx: 1, Name: "b", Typ: types.KindInt}
	scalar := &expr.ScalarParam{Idx: 0}
	group := &expr.GroupParam{Idx: 0, Keys: []expr.Expr{b}}
	scaled := &expr.Binary{Op: sqlparser.OpMul, L: &expr.Const{V: types.NewFloat(0.5)}, R: group}
	sides := []tvShape{{name: "scalar", e: scalar}, {name: "group", e: group}, {name: "k*group", e: scaled}}
	var shapes []tvShape
	for _, op := range []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt,
		sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe} {
		for _, side := range sides {
			for _, col := range []*expr.Col{x, b} {
				shapes = append(shapes,
					tvShape{fmt.Sprintf("%s %s %s", col.Name, op, side.name), &expr.Binary{Op: op, L: col, R: side.e}, true},
					tvShape{fmt.Sprintf("%s %s %s", side.name, op, col.Name), &expr.Binary{Op: op, L: side.e, R: col}, true})
			}
		}
		// Both sides vary over the axis: the general comparison.
		shapes = append(shapes, tvShape{fmt.Sprintf("scalar %s group", op), &expr.Binary{Op: op, L: scalar, R: group}, false})
	}
	return shapes
}

func TestTrialSweepParity(t *testing.T) {
	const trials = 11 // not a multiple of 4
	w := 1 + trials
	rng := rand.New(rand.NewSource(11))
	for _, unclean := range []bool{false, true} {
		for rep := 0; rep < 3; rep++ {
			f := newTVFixture(rng, trials, unclean)
			refused := 0
			for _, sh := range tvParityShapes() {
				c := &tvCompiler{bind: f.bind, width: w, slotBase: int(^uint(0) >> 1)}
				prog := c.pred(sh.e)
				if prog == nil {
					t.Fatalf("%s: does not lower", sh.name)
				}
				if _, inv := prog.(*tvCmpK); inv != sh.inv {
					t.Fatalf("%s: lowered to %T", sh.name, prog)
				}
				for _, k := range c.keys {
					k.reset() // as bindOrdinals binds a new encoding
				}
				r := &blockRunner{uncertainWhere: sh.e}
				ev := &snapEval{r: r, width: w, ctxs: &ctxSet{b: f.bind}, mask: make([]uint8, w)}
				ev.env = tvEnv{bind: f.bind, stride: w, epoch: 1}
				ev.env.refreshScalars(w)
				ev.ctxs.axis(w)
				ev.ctxs.refresh()
				want := make([]uint8, w)
				for i, row := range f.rows {
					ev.where = nil // rowTri's interpreter loop
					copy(want, ev.rowTri(row, 0, w))
					for _, byOrd := range []bool{false, true} {
						ev.env.ct, ev.env.seg = nil, nil
						if byOrd {
							ev.env.ct = f.ct
							ev.env.seg, ev.env.i = f.ct.Segment(i)
						}
						name := fmt.Sprintf("%s unclean=%v row %d %v byOrd=%v", sh.name, unclean, i, row, byOrd)
						for _, span := range [][2]int{{0, 1}, {1, w}, {0, w}} {
							lo, hi := span[0], span[1]
							ev.env.row = row
							got, ok := prog.tri(&ev.env, lo, hi)
							if !ok {
								if !unclean {
									t.Fatalf("%s: clean lanes refused", name)
								}
								refused++
							} else {
								for j := lo; j < hi; j++ {
									if got[j] != want[j] {
										t.Fatalf("%s: lane %d: lowered %d, interpreter %d", name, j, got[j], want[j])
									}
								}
							}
							// rowTri itself: lowered, or the interpreter where
							// the program refuses.
							ev.where = prog
							got = ev.rowTri(row, lo, hi)
							ev.where = nil
							for j := lo; j < hi; j++ {
								if got[j] != want[j] {
									t.Fatalf("%s: rowTri lane %d: %d, interpreter %d", name, j, got[j], want[j])
								}
							}
						}
					}
				}
			}
			if unclean && refused == 0 {
				t.Fatal("an integer lane never made the program refuse")
			}
		}
	}
}
