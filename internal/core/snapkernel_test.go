package core

import (
	"fmt"
	"math"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Snapshot evaluation decides the cached uncertain set's point truth by
// the tri-state kernel in a point epoch and reads its trial lanes by
// ordinal (snapeval.go). Both must agree with the lowered per-row
// program (rowTri) that they replace: the point kernel's decided bytes
// with rowTri's point truth (NULL reading as not TRUE), the ordinal
// lanes with rowTri's lanes one for one. The tests below check that at
// every mini-batch of every columnarQueries shape, and of shapes over
// NULL, NaN and ±0 values and keys, NOT/AND/OR and dictionary-string
// keys, and hold the snapshots bit-identical to the row path's.

// specialCatalog is a fact table sv(a STRING, b INT, x FLOAT, y FLOAT,
// f FLOAT): a dictionary-string key, an int key with NULLs, an integral
// measure with NULLs and ±0, a comparison column with NaN, ±0 and
// NULLs, and a float key over ±0, NaN and NULL.
func specialCatalog(n int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("sv", types.NewSchema(
		"a", types.KindString, "b", types.KindInt, "x", types.KindFloat,
		"y", types.KindFloat, "f", types.KindFloat))
	as := []string{"aa", "bb", "cc", "dd", "ee"}
	negZero := math.Copysign(0, -1)
	ys := []float64{0, negZero, math.NaN(), 250, 500, 750}
	fs := []float64{0, negZero, math.NaN(), 1.5, -2}
	rng := bootstrap.NewRNG(seed)
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewString(as[rng.Intn(len(as))]),
			types.NewInt(int64(rng.Intn(16))),
			types.NewFloat(float64(rng.Intn(1000))),
			types.NewFloat(float64(rng.Intn(1000))),
			types.NewFloat(fs[rng.Intn(len(fs))]),
		}
		if rng.Intn(4) == 0 {
			row[3] = types.NewFloat(ys[rng.Intn(len(ys))])
		}
		switch rng.Intn(30) {
		case 0:
			row[1] = types.Null
		case 1:
			row[2] = types.Null
		case 2:
			row[2] = types.NewFloat(negZero)
		case 3:
			row[3] = types.Null
		case 4:
			row[4] = types.Null
		}
		_ = t.Append(row)
	}
	cat.Put(t)
	return cat
}

// specialQueries are uncertain shapes over specialCatalog.
var specialQueries = []struct {
	name, sql string
	cacheOnly int // the most cache-only groups one bucket index must hold, at least
}{
	{"not-correlated", `SELECT a, COUNT(x), SUM(x) FROM sv
		WHERE NOT (y < (SELECT 0.9 * AVG(x) FROM sv s2 WHERE s2.b = sv.b)) GROUP BY a`, 0},
	{"string-key", `SELECT COUNT(x), SUM(x) FROM sv
		WHERE y < (SELECT AVG(x) FROM sv s2 WHERE s2.a = sv.a)`, 0},
	{"float-key", `SELECT b, COUNT(x), SUM(x) FROM sv
		WHERE y >= (SELECT AVG(x) FROM sv s2 WHERE s2.f = sv.f) GROUP BY b`, 0},
	{"eq-nan", `SELECT COUNT(x), SUM(x) FROM sv
		WHERE y = (SELECT 0.5 * AVG(x) FROM sv s2 WHERE s2.b = sv.b) OR y < 100`, 0},
	{"or-in", `SELECT a, COUNT(x), SUM(x) FROM sv
		WHERE y < (SELECT 0.8 * AVG(x) FROM sv s2 WHERE s2.b = sv.b)
		   OR b IN (SELECT b FROM sv GROUP BY b HAVING AVG(x) > 500) GROUP BY a`, 0},
	{"not-in", `SELECT a, COUNT(x) FROM sv
		WHERE b NOT IN (SELECT b FROM sv GROUP BY b HAVING AVG(x) > 495) GROUP BY a`, 0},
	{"not-of-in-and", `SELECT COUNT(x), SUM(x) FROM sv
		WHERE NOT (b IN (SELECT b FROM sv GROUP BY b HAVING AVG(x) > 495) AND x > 100)`, 0},
	{"not-scalar", `SELECT b, COUNT(x), SUM(x) FROM sv
		WHERE NOT (y >= (SELECT AVG(x) FROM sv)) GROUP BY b`, 0},
	// Grouped by the float key (±0, NaN, NULL) and by two columns, with
	// memberships that leave whole groups uncertain: cache-only groups,
	// whose keys are read from cached rows alone. group-many is keyed,
	// like Q18, by a near-unique column (the measure x, with ±0 and
	// NULL): it leaves more cache-only groups, most of one or two rows,
	// than extra stores keys for, so both the stored copies and the
	// donors' re-read keys are held to the row path.
	{"group-float", `SELECT f, COUNT(x), SUM(x) FROM sv
		WHERE f IN (SELECT f FROM sv GROUP BY f HAVING AVG(x) > 485) GROUP BY f`, 1},
	{"group-2key", `SELECT a, b, COUNT(x), SUM(x) FROM sv
		WHERE b IN (SELECT b FROM sv GROUP BY b HAVING AVG(x) > 495) OR y < 100 GROUP BY a, b`, 1},
	{"group-many", `SELECT a, x, COUNT(y), SUM(y) FROM sv
		WHERE b IN (SELECT b FROM sv GROUP BY b HAVING AVG(x) > 495) GROUP BY a, x`, storedExtraKeys + 1},
}

// parityCounts totals what the snapshot fast paths covered: rows whose
// point truth the kernel decided, rows whose trial lanes were read by
// ordinal, the cached rows of grouped blocks and those whose group key
// bucket read from the encoding; cacheOnly is the most cache-only groups
// one bucket index held.
type parityCounts struct {
	decided, ordinal, keyed, encKeys, cacheOnly int
}

// checkSnapKernelParity re-derives, for every runner of eng with cached
// uncertain rows, its live evaluator's point truth and trial lanes both
// ways (a bucket index left stale by a missing invalidation fails here),
// then rebuilds a grouped runner's bucket index to count the keys it
// reads from the encoding. It adds what it covered to n.
func checkSnapKernelParity(t *testing.T, name string, eng *Engine, n *parityCounts) {
	t.Helper()
	for _, r := range eng.runners {
		u := r.uncertain
		if r.uncertainWhere == nil || len(u) == 0 {
			continue
		}
		ev := r.eval()
		pointTruth := func(i int) uint8 {
			if d := ev.rowTri(u[i].row, 0, 1)[0]; d == expr.TriTrue {
				return d
			}
			return expr.TriFalse
		}
		for i := range u {
			got := triOfBool(ev.pass[i>>6]&(1<<(uint(i)&63)) != 0)
			if want := pointTruth(i); got != want {
				t.Fatalf("%s: block %d row %d: bucket point truth %d, rowTri %d", name, r.b.ID, i, got, want)
			}
		}
		if k := r.reclassKernel(ev.pointEnv); k != nil {
			run := r.cs.triU
			for lo := 0; lo < len(u); {
				hi := r.decideRun(k, run, lo, len(u))
				for i := lo; i < hi; i++ {
					if d := run[i-lo]; d != expr.TriNull {
						if want := pointTruth(i); d != want {
							t.Fatalf("%s: block %d row %d: point kernel %d, rowTri %d (row %v)",
								name, r.b.ID, i, d, want, u[i].row)
						}
						n.decided++
					}
				}
				lo = hi
			}
		}
		if ev.env.ct != nil {
			w := ev.width
			want := make([]uint8, w)
			for i := range u {
				if !r.eng.sampled(r.ts, u[i].ord) {
					continue
				}
				copy(want[1:], ev.rowTri(u[i].row, 1, w)[1:w])
				ev.env.seg, ev.env.i = ev.env.ct.Segment(u[i].ord)
				got := ev.rowTri(u[i].row, 1, w)
				ev.env.seg = nil
				for j := 1; j < w; j++ {
					if got[j] != want[j] {
						t.Fatalf("%s: block %d row %d trial %d: by ordinal %d, by row %d (row %v)",
							name, r.b.ID, i, j-1, got[j], want[j], u[i].row)
					}
				}
				n.ordinal++
			}
		}
		if ev.global() {
			continue
		}
		r.invalidateEval()
		before := r.cs.encKeys
		ev = r.eval()
		n.keyed += len(u)
		n.encKeys += int(r.cs.encKeys - before)
		n.cacheOnly = max(n.cacheOnly, ev.ex.n)
	}
}

// runSnapKernelParity steps sql to the end, checking parity after every
// mini-batch, and returns the snapshots with the totals.
func runSnapKernelParity(t *testing.T, cat *storage.Catalog, sql string, o Options) (snaps []*Snapshot, n parityCounts) {
	t.Helper()
	eng := newTestEngine(t, cat, sql, o)
	for {
		snap, err := eng.Step()
		if err == ErrDone {
			return snaps, n
		}
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		checkSnapKernelParity(t, fmt.Sprintf("batch %d", snap.Batch), eng, &n)
	}
}

// newTestEngine compiles sql and builds an engine, closed at cleanup.
func newTestEngine(t *testing.T, cat *storage.Catalog, sql string, o Options) *Engine {
	t.Helper()
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestSnapshotKernelParity checks the point kernel and the ordinal trial
// lanes against rowTri on every columnarQueries shape and every special
// shape, serially and at P=2, and that the special shapes' snapshots
// equal the row path's bit for bit. Every shape whose predicate compiles
// to the kernel must decide rows by it and read lanes by ordinal, and a
// grouped one without dims must read every cached row's group key from
// the encoding.
func TestSnapshotKernelParity(t *testing.T) {
	type shape struct {
		name, sql string
		cat       *storage.Catalog
		special   bool // must run the kernel; compare snapshots with the row path
		cacheOnly int
	}
	var shapes []shape
	cc := columnarCatalog(3*8192, 7)
	for _, q := range columnarQueries {
		shapes = append(shapes, shape{q.name, q.sql, cc, false, 0})
	}
	sc := specialCatalog(6000, 5)
	for _, q := range specialQueries {
		shapes = append(shapes, shape{q.name, q.sql, sc, true, q.cacheOnly})
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			for _, p := range []int{1, 2} {
				o := columnarOptions(7, p, false)
				o.Batches = 4
				snaps, n := runSnapKernelParity(t, s.cat, s.sql, o)
				eng := newTestEngine(t, s.cat, s.sql, o)
				root := eng.runners[len(eng.runners)-1]
				kernel := root.classifier() == "tri:kernel"
				if kernel && (n.decided == 0 || n.ordinal == 0) {
					t.Fatalf("P=%d: kernel shape decided %d rows by the point kernel, read %d by ordinal",
						p, n.decided, n.ordinal)
				}
				if kernel && len(root.b.GroupBy) > 0 {
					want := n.keyed
					if root.colPl.hasDims {
						want = 0 // a dims block's keys read the joined rows
					}
					if n.keyed == 0 || n.encKeys != want {
						t.Fatalf("P=%d: grouped kernel shape read %d of %d cached keys from the encoding, want %d",
							p, n.encKeys, n.keyed, want)
					}
				}
				if n.cacheOnly < s.cacheOnly {
					t.Fatalf("P=%d: at most %d cache-only groups, want %d", p, n.cacheOnly, s.cacheOnly)
				}
				if s.special && root.classifier() != "tri:kernel" {
					t.Fatalf("root classifier %q, want tri:kernel", root.classifier())
				}
				if s.special {
					ro := columnarOptions(7, p, true)
					ro.Batches = o.Batches
					compareSnapshots(t, fmt.Sprintf("P=%d row path", p), runSnapshots(t, s.cat, s.sql, ro), snaps)
				}
			}
		})
	}
}
