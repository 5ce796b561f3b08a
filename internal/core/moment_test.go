package core

import (
	"fmt"
	"math"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// momentCatalog is one table "mm" of n rows: four large groups share 90%
// of the rows and a hundred small ones the rest. x is an integer-valued
// float measure, so every sum the fold and the moment accumulators form
// is exact and runs that split batches differently can agree bit for
// bit (see determinismCatalog).
func momentCatalog(n int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("mm", types.NewSchema(
		"a", types.KindString,
		"x", types.KindFloat,
	))
	rng := bootstrap.NewRNG(seed)
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("big%d", rng.Intn(4))
		if rng.Intn(10) == 0 {
			a = fmt.Sprintf("s%d", rng.Intn(100))
		}
		_ = t.Append(types.Row{types.NewString(a), types.NewFloat(float64(rng.Intn(1000)))})
	}
	cat.Put(t)
	return cat
}

// laneStats is the sample mean and variance of a and b and their
// sample covariance.
func laneStats(a, b []float64) (ma, mb, va, vb, cab float64) {
	n := float64(len(a))
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma, mb = ma/n, mb/n
	for i := range a {
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
		cab += (a[i] - ma) * (b[i] - mb)
	}
	return ma, mb, va / (n - 1), vb / (n - 1), cab / (n - 1)
}

// TestMomentLanesMatchPoisson: a large group's moment-drawn lane
// increments have the mean, variance and W/V covariance of the Poisson
// lanes they replace. One group (a scalar block), T = 2000, two batches
// of 1500 rows: batch 1 folds real lanes and takes the group past
// momentMin, batch 2 folds into moments. Its drawn increments are
// compared with the Poisson lanes of the same rows, regenerated from
// their weights, and with the exact moments (mean n and Σx, variance n
// and Σx², covariance Σx); each within 4 standard errors at T = 2000.
func TestMomentLanesMatchPoisson(t *testing.T) {
	const trials, perBatch = 2000, 1500
	cat := momentCatalog(2*perBatch, 5)
	for _, rowPath := range []bool{false, true} {
		t.Run(fmt.Sprintf("rowPath=%v", rowPath), func(t *testing.T) {
			q, err := plan.Compile(`SELECT SUM(x), AVG(x) FROM mm`, cat)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(q, cat, WithSeams(Options{Batches: 2, Trials: trials, Seed: 9,
				BootstrapSampleCap: -1, Parallelism: 1}, Seams{RowPath: rowPath}))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			stepTo(t, eng, 1)
			r := eng.runners[len(eng.runners)-1]
			en := r.tab.entries[0]
			if en.ns < momentMin {
				t.Fatalf("batch 1 folded %d sampled rows, want ≥ %d", en.ns, momentMin)
			}
			w0 := append([]float64(nil), en.bankW[:trials]...)
			v0 := append([]float64(nil), en.bankV[:trials]...)
			stepTo(t, eng, 1)
			if m := r.tab.mom; m == nil || len(m.order) != 1 {
				t.Fatal("batch 2 did not fold the group into moments")
			}
			dW, dV := make([]float64, trials), make([]float64, trials)
			for j := range dW {
				dW[j], dV[j] = en.bankW[j]-w0[j], en.bankV[j]-v0[j]
			}
			// The Poisson lanes batch 2's rows would have added, and the
			// exact moments.
			ts := eng.tables["mm"]
			rows := ts.batches[1]
			pW, pV := make([]float64, trials), make([]float64, trials)
			var n, sx, sxx float64
			for i, row := range rows {
				x := row[1].Float()
				n, sx, sxx = n+1, sx+x, sxx+x*x
				w := eng.weights(nil, ts, ts.starts[1]+i, trials)
				for j, wj := range w {
					pW[j] += wj
					pV[j] += x * wj
				}
			}
			mW, mV, vW, vV, cWV := laneStats(dW, dV)
			qW, qV, uW, uV, dWV := laneStats(pW, pV)
			se := func(v float64) float64 { return 4 * math.Sqrt(v/trials) }
			// The variance of a sample variance (and covariance) of a
			// near-normal is about 2σ⁴/(T−1) (σ_a²σ_b² + cov² for cov).
			seVar := func(v float64) float64 { return 4 * v * math.Sqrt(2.0/trials) }
			seCov := 4 * math.Sqrt((sxx*n+sx*sx)/trials)
			for _, c := range []struct {
				name            string
				moment, poisson float64
				exact, tol      float64
			}{
				{"mean W", mW, qW, n, se(n)},
				{"mean V", mV, qV, sx, se(sxx)},
				{"var W", vW, uW, n, seVar(n)},
				{"var V", vV, uV, sxx, seVar(sxx)},
				{"cov WV", cWV, dWV, sx, seCov},
			} {
				if math.Abs(c.moment-c.exact) > c.tol {
					t.Errorf("%s: moment lanes %.6g, exact %.6g (tolerance %.3g)", c.name, c.moment, c.exact, c.tol)
				}
				if math.Abs(c.poisson-c.exact) > c.tol {
					t.Errorf("%s: Poisson lanes %.6g, exact %.6g (tolerance %.3g)", c.name, c.poisson, c.exact, c.tol)
				}
				if math.Abs(c.moment-c.poisson) > 1.5*c.tol {
					t.Errorf("%s: moment lanes %.6g, Poisson lanes %.6g", c.name, c.moment, c.poisson)
				}
			}
			// The AVG reads the SUM's streams: every lane has evidence.
			for j := range dW {
				if en.bankW[j] <= 0 {
					t.Fatalf("trial %d: W lane %v", j, en.bankW[j])
				}
			}
		})
	}
}

const momentSQL = `SELECT a, COUNT(x), SUM(x), AVG(x) FROM mm
	WHERE x > (SELECT AVG(x) FROM mm) GROUP BY a`

func momentOptions(p int, rowPath bool) Options {
	return WithSeams(Options{Batches: 8, Trials: 40, Seed: 17, BootstrapSampleCap: -1,
		Parallelism: p}, Seams{PartRows: 128, RowPath: rowPath})
}

// TestMomentModeDeterminism: on a fixture whose large groups cross
// momentMin mid-run (the inner scalar after batch 1, the four large root
// groups a few batches later) while a hundred small groups keep real
// lanes, runs at a fixed Parallelism are bit-identical — repeated, after
// a replay of the processed prefix, and resumed from a checkpoint — at
// P 1 and 2, and the row path equals the columnar path at each. The
// measure is integral, so P 2 also equals P 1: a worker stage takes each
// group's mode from the runner table, never from its own part.
func TestMomentModeDeterminism(t *testing.T) {
	cat := momentCatalog(8*1024, 3)
	q, err := plan.Compile(momentSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	var serial []*Snapshot
	for _, p := range []int{1, 2} {
		var columnar []*Snapshot
		for _, rowPath := range []bool{false, true} {
			label := fmt.Sprintf("P=%d rowPath=%v", p, rowPath)
			o := momentOptions(p, rowPath)
			ref, eng := runEngine(t, cat, momentSQL, o)
			mode := map[int]int{} // block ID → groups in moment mode
			small := false
			for _, r := range eng.runners {
				if r.tab.mom != nil {
					mode[r.b.ID] = len(r.tab.mom.order)
				}
				for _, en := range r.tab.entries {
					small = small || (en.ns > 0 && en.ns < momentMin)
				}
			}
			if len(mode) != 2 || mode[eng.q.Root.ID] != 4 || !small {
				t.Fatalf("%s: moment-mode groups by block %v, small groups %v: the fixture must cross momentMin in both blocks", label, mode, small)
			}
			compareSnapshots(t, label+" repeated", ref, runSnapshots(t, cat, momentSQL, o))
			switch {
			case rowPath:
				compareSnapshots(t, label+" vs columnar", columnar, ref)
			case p == 1:
				columnar, serial = ref, ref
			default:
				columnar = ref
				compareSnapshots(t, label+" vs P=1", serial, ref)
			}

			// Replay the processed prefix mid-run: the moment draws are
			// regenerated, so the snapshot and the continuation repeat.
			eng2, err := New(q, cat, o)
			if err != nil {
				t.Fatal(err)
			}
			got := stepTo(t, eng2, 5)
			if err := eng2.replayUpTo(eng2.batch - 1); err != nil {
				t.Fatal(err)
			}
			re := eng2.snapshot(0)
			if !sameCellRows(re.Rows, got[4].Rows) {
				t.Fatalf("%s: snapshot after replay differs", label)
			}
			got = append(got, finish(t, eng2)...)
			eng2.Close()
			compareSnapshots(t, label+" replayed", ref, got)

			// Resume from a checkpoint taken after the switch.
			eng3, err := New(q, cat, o)
			if err != nil {
				t.Fatal(err)
			}
			got = stepTo(t, eng3, 4)
			ck, err := eng3.Checkpoint()
			eng3.Close()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Resume(q, cat, o, ck)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, finish(t, res)...)
			res.Close()
			compareSnapshots(t, label+" resumed", ref, got)
		}
	}
}

// sameCellRows is bit-level equality of two snapshots' rows.
func sameCellRows(a, b [][]CellEstimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameCells(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestMomentFoldAllocs: a warm feed that folds its group into moments —
// the mode decision, the fold kernel's moment sums and the closing
// draw — allocates nothing.
func TestMomentFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng, r, ts, te := columnarBenchEnvSQL(t, `SELECT AVG(x) FROM facts`, true, false)
	defer eng.Close()
	rows, base := ts.batches[1], ts.starts[1]
	feed := func() {
		r.beginMoments()
		r.feedBatchSerial(rows[:512], base, te)
		r.drawMoments(1)
	}
	feed()
	if m := r.tab.mom; m == nil || len(m.order) != 1 {
		t.Fatal("the feed did not fold the group into moments")
	}
	if allocs := testing.AllocsPerRun(20, feed); allocs != 0 {
		t.Fatalf("a moment-mode feed allocates %.1f times, want 0", allocs)
	}
}
