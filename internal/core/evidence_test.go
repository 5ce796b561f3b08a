package core

import (
	"fmt"
	"math"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
	"fluodb/internal/workload"
)

// nullPrefixCatalog is 160 lineitem rows over 10 parts in generator
// order, with part 0's quantity NULL in the first of four mini-batches:
// at batch 1 part 0's aggregates over quantity have no input at all, a
// NULL estimate (AVG, SUM) or 0 (COUNT) that later batches overturn.
// Generator seed 7 is one at which the NULL prefix is the only source of
// range failures in these shapes: at seed 1, part 6 (no NULLs) fails its
// small-sample AVG range three times, before and after the evidence
// rule, which a recompute count here would confuse with that rule.
func nullPrefixCatalog() *storage.Catalog {
	src := workload.GenLineitem(160, 10, 7)
	sch := src.Schema()
	pk, q := sch.ColumnIndex("partkey"), sch.ColumnIndex("quantity")
	li := storage.NewTable("lineitem", sch)
	for i, r := range src.Rows() {
		r = r.Clone()
		if i < 40 && r[pk].Int() == 0 {
			r[q] = types.Null
		}
		_ = li.Append(r)
	}
	cat := storage.NewCatalog()
	cat.Put(li)
	return cat
}

// TestNoEvidenceIsNotCertain: an aggregate with no input yet is no
// evidence, so no predicate over it may decide a row before the scan
// completes. Each shape's final answer must equal the exact run's, with
// no recompute: a NULL or empty-COUNT estimate read as certain drops
// rows for good (scalar and correlated AVG) or commits a membership the
// next batch contradicts (HAVING SUM).
func TestNoEvidenceIsNotCertain(t *testing.T) {
	cat := nullPrefixCatalog()
	const sel = `SELECT SUM(partkey), COUNT(*) FROM lineitem l WHERE `
	shapes := []struct{ name, where string }{
		{"scalar-avg", `discount < (SELECT AVG(quantity) FROM lineitem WHERE partkey = 0)`},
		{"correlated-avg", `discount < (SELECT AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`},
		{"correlated-count", `discount < (SELECT COUNT(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`},
		{"in-having-sum", `partkey IN (SELECT partkey FROM lineitem GROUP BY partkey HAVING SUM(quantity) > 5)`},
	}
	for _, sh := range shapes {
		for _, rowPath := range []bool{false, true} {
			for _, par := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/rowpath=%v/P%d", sh.name, rowPath, par), func(t *testing.T) {
					sql := sel + sh.where
					q, err := plan.Compile(sql, cat)
					if err != nil {
						t.Fatal(err)
					}
					exact, err := exec.Run(q, cat)
					if err != nil {
						t.Fatal(err)
					}
					q2, _ := plan.Compile(sql, cat)
					eng, err := New(q2, cat, WithSeams(Options{Batches: 4, Trials: 20, Seed: 3,
						Parallelism: par}, Seams{RowPath: rowPath, PartRows: 8}))
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					final, err := eng.Run(nil)
					if err != nil {
						t.Fatal(err)
					}
					rowsEqual(t, final.ValueRows(), exact.Rows, 0, 1e-9)
					if n := eng.Metrics().Recomputes; n != 0 {
						t.Errorf("recomputes = %d, want 0", n)
					}
				})
			}
		}
	}
}

// TestFirstSnapshotRSDNeedsEvidence: Q17 on 120k shuffled rows over 810
// parts at T = 100, one mini-batch of k = 100 or 250. Under the
// automatic bootstrap cap, the Bernoulli subsample can leave every group
// of the first batch without replica evidence, so no cell carries a CI
// while rows are still uncertain; RSD must then read +Inf (no estimate),
// not 0 (certainty). With replicas over every row (BootstrapSampleCap
// -1), every such snapshot has a CI.
func TestFirstSnapshotRSDNeedsEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("80 engines over a 120k-row table")
	}
	cat := storage.NewCatalog()
	cat.Put(workload.GenLineitem(120000, 810, 1).Shuffled(2))
	wq, _ := workload.ByName("Q17")
	for _, k := range []int{100, 250} {
		for _, sampleCap := range []int{0, -1} {
			noCI := 0
			for seed := uint64(7); seed <= 26; seed++ {
				q, err := plan.Compile(wq.SQL, cat)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := New(q, cat, Options{Batches: k, Trials: 100, Seed: seed,
					BootstrapSampleCap: sampleCap, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				snap, err := eng.Step()
				eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				if snap.UncertainRows == 0 {
					continue
				}
				hasCI := false
				for _, row := range snap.Rows {
					for _, c := range row {
						hasCI = hasCI || c.HasCI
					}
				}
				if !hasCI {
					noCI++
					if sampleCap < 0 {
						t.Errorf("k=%d seed %d: full bootstrap left no cell with a CI", k, seed)
					}
				}
				if rsd := snap.RSD(); rsd == 0 || (!hasCI && !math.IsInf(rsd, 1)) {
					t.Errorf("k=%d cap=%d seed %d: RSD %v with %d uncertain rows and CI=%v",
						k, sampleCap, seed, rsd, snap.UncertainRows, hasCI)
				}
			}
			t.Logf("k=%d cap=%d: %d/20 first snapshots without a CI", k, sampleCap, noCI)
		}
	}
}

// TestUnknownRangeStillChecksCommit: completion publishes an exact
// integer as an unknown range (pointParam: a float range cannot carry
// it exactly), so a committed range must be held to the point itself,
// or a commit the exact value contradicts would stand.
func TestUnknownRangeStillChecksCommit(t *testing.T) {
	b := newBindings(1, 1, 0, 8)
	commit := okRange(bootstrap.Range{Lo: 9, Hi: 11})
	exact := types.NewInt(20)
	if b.updateScalar(0, types.NewFloat(10), nullValues(8), commit) {
		t.Fatal("first scalar update must commit, not fail")
	}
	if !b.updateScalar(0, exact, nullValues(8), pointParam(exact)) {
		t.Error("scalar: an exact point outside the committed range must fail")
	}
	gk := types.Row{types.NewString("g")}
	gid, gh := b.groups[0].keys.pubKey(gk), gk.HashKey(keyCols(1))
	if b.updateGroupEntry(0, gid, gk, gh, types.NewFloat(10), commit, true) {
		t.Fatal("first group update must commit, not fail")
	}
	if !b.updateGroupEntry(0, gid, gk, gh, exact, pointParam(exact), true) {
		t.Error("group: an exact point outside the committed range must fail")
	}
}

// FuzzReplicaRange holds the two range builders to the evidence rule
// over generated points, replicas and accumulators, before completion:
// no result is NULL; an OK replica range rests on at least max(3,
// trials/4) replicas, all finite, with a spread above the hairline, and
// contains its point; an OK CLT range rests on enough input, has a
// positive width and contains its point. extra is one more replica and
// accumulator input, where the mutator puts NaN, ±Inf and extremes.
func FuzzReplicaRange(f *testing.F) {
	f.Add(uint8(1), 5.0, uint8(12), 1.0, []byte{4, 5, 6, 4, 5, 6, 5, 5, 4, 6, 5, 4}, 1.0, uint16(16384))
	f.Add(uint8(0), 0.0, uint8(100), 1.0, []byte{1, 2, 3}, 0.0, uint16(100))
	f.Add(uint8(6), 7.0, uint8(20), 2.0, []byte{7, 7, 7, 7, 7, 7, 7, 7}, math.Inf(1), uint16(60000))
	f.Add(uint8(5), 1e300, uint8(8), 1.0, []byte{0x80, 0x7f, 0, 1, 2, 3, 4, 5}, -1e308, uint16(1))
	f.Fuzz(func(t *testing.T, kind uint8, p float64, trials uint8, eps float64, data []byte, extra float64, frac uint16) {
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 1
		}
		eps = 0.5 + math.Mod(math.Abs(eps), 8)
		var point types.Value
		switch kind % 3 {
		case 0:
			point = types.Null
		case 1:
			point = types.NewFloat(p)
		case 2:
			point = types.NewInt(int64(math.Mod(p, 1<<53)))
		}
		vals := make([]float64, 0, len(data)+1)
		for _, b := range data {
			vals = append(vals, p+float64(int8(b))/16)
		}
		if kind&4 != 0 {
			vals = append(vals, extra)
		}
		pr := replicaRange(point, vals, int(trials), eps)
		switch pr.status {
		case rsNull:
			t.Fatalf("replica range of %v over %v is NULL", point, vals)
		case rsOK:
			pf, ok := point.AsFloat()
			if !ok || len(vals) < max(3, int(trials)/4) {
				t.Fatalf("OK range %+v without evidence: point %v, %d replicas, trials %d", pr.r, point, len(vals), trials)
			}
			for _, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("OK range %+v over non-finite replica %v", pr.r, v)
				}
			}
			if sd := bootstrap.StdDev(vals); !(sd > 1e-9*(1+math.Abs(pf))) {
				t.Fatalf("OK range %+v over hairline spread %g", pr.r, sd)
			}
			if !pr.r.Contains(pf) {
				t.Fatalf("OK range %+v misses its point %v", pr.r, pf)
			}
		}

		var a cltAcc
		for _, b := range data {
			a.add(float64(int8(b)))
		}
		if kind&8 != 0 {
			a.add(extra)
		}
		fr := (float64(frac) + 1) / 65537 // in (0, 1): before completion
		z := cltZBase + eps
		for _, k := range []cltKind{cltAvg, cltSum, cltCount} {
			pr := cltRange(k, &a, 1/fr, fr, z)
			var pt float64
			var minN float64
			switch k {
			case cltAvg:
				pt, minN = a.mean, 4
			case cltSum:
				pt, minN = 1/fr*a.n*a.mean, 2
			case cltCount:
				pt, minN = 1/fr*a.n, 1
			}
			switch pr.status {
			case rsNull:
				t.Fatalf("kind %d: CLT range over n=%v is NULL", k, a.n)
			case rsOK:
				if a.n < minN {
					t.Fatalf("kind %d: OK range %+v over n=%v", k, pr.r, a.n)
				}
				if !(pr.r.Hi > pr.r.Lo) {
					t.Fatalf("kind %d: OK range %+v has no width", k, pr.r)
				}
				if !pr.r.Contains(pt) {
					t.Fatalf("kind %d: OK range %+v misses its point %v", k, pr.r, pt)
				}
			}
		}
	})
}
