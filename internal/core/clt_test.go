package core

import (
	"math"
	"testing"
	"testing/quick"

	"fluodb/internal/plan"
	"fluodb/internal/types"
)

func TestCltKindOf(t *testing.T) {
	cases := []struct {
		name     string
		distinct bool
		want     cltKind
	}{
		{"AVG", false, cltAvg},
		{"SUM", false, cltSum},
		{"COUNT", false, cltCount},
		{"COUNT", true, cltNone}, // DISTINCT breaks the CLT form
		{"MIN", false, cltNone},
		{"MEDIAN", false, cltNone},
	}
	for _, c := range cases {
		spec := &plan.AggSpec{Name: c.name, Distinct: c.distinct}
		if got := cltKindOf(spec); got != c.want {
			t.Errorf("cltKindOf(%s, distinct=%v) = %v, want %v", c.name, c.distinct, got, c.want)
		}
	}
}

func TestCltAccWelford(t *testing.T) {
	var a cltAcc
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		a.add(v)
	}
	if a.n != 8 || math.Abs(a.mean-5) > 1e-12 {
		t.Fatalf("n=%v mean=%v", a.n, a.mean)
	}
	want := 32.0 / 7.0 // sample variance
	if math.Abs(a.variance()-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", a.variance(), want)
	}
	var empty cltAcc
	if empty.variance() != 0 {
		t.Error("variance of empty acc")
	}
}

func TestCltRangeAvgCoversTruth(t *testing.T) {
	// Property: for normal-ish data, the AVG range from a prefix covers
	// the full-population mean in the vast majority of draws.
	var a cltAcc
	truth := 0.0
	n := 1000
	seen := 200
	rng := newTestRNG(5)
	var all []float64
	for i := 0; i < n; i++ {
		v := rng.norm()*10 + 50
		all = append(all, v)
		truth += v
	}
	truth /= float64(n)
	for i := 0; i < seen; i++ {
		a.add(all[i])
	}
	f := float64(seen) / float64(n)
	r := cltRange(cltAvg, &a, 1/f, f, cltZBase+1)
	if r.status != rsOK {
		t.Fatalf("status = %v", r.status)
	}
	if !r.r.Contains(truth) {
		t.Errorf("range [%g,%g] misses truth %g", r.r.Lo, r.r.Hi, truth)
	}
	// finite-population correction: at f→1 the range collapses
	for i := seen; i < n; i++ {
		a.add(all[i])
	}
	r2 := cltRange(cltAvg, &a, 1, 1, cltZBase+1)
	if r2.r.Hi-r2.r.Lo > 1e-9 {
		t.Errorf("complete-scan range should collapse, got width %g", r2.r.Hi-r2.r.Lo)
	}
	// the collapsed range sits on the exact mean (up to float summation
	// order between Welford and the two-pass truth)
	if math.Abs(r2.r.Lo-truth) > 1e-9*(1+math.Abs(truth)) {
		t.Errorf("collapsed range at %g, truth %g", r2.r.Lo, truth)
	}
}

func TestCltRangeSumAndCount(t *testing.T) {
	var a cltAcc
	for i := 0; i < 100; i++ {
		a.add(10)
	}
	f := 0.25
	scale := 1 / f
	rs := cltRange(cltSum, &a, scale, f, 3.6)
	if rs.status != rsOK {
		t.Fatalf("sum status = %v", rs.status)
	}
	point := scale * 100 * 10
	if !rs.r.Contains(point) {
		t.Error("sum range must contain its point estimate")
	}
	rc := cltRange(cltCount, &a, scale, f, 3.6)
	if rc.status != rsOK || !rc.r.Contains(scale*100) {
		t.Errorf("count range = %+v", rc)
	}
	// No input before completion is no evidence: COUNT reads 0 and
	// SUM/AVG read NULL so far, but the unread rows may hold input.
	var empty cltAcc
	for _, k := range []cltKind{cltCount, cltSum, cltAvg} {
		if pr := cltRange(k, &empty, scale, f, 3.6); pr.status != rsUnknown {
			t.Errorf("kind %d over empty input = %+v, want unknown", k, pr)
		}
	}
	// single observation leaves the variance unidentified
	var one cltAcc
	one.add(5)
	if cltRange(cltAvg, &one, scale, f, 3.6).status != rsUnknown {
		t.Error("n=1 AVG range should be unknown")
	}
}

func TestCltRangeWidthShrinksQuick(t *testing.T) {
	// Property: with more data seen (larger f, larger n), the AVG range
	// narrows.
	prop := func(seed uint64) bool {
		rng := newTestRNG(seed)
		var a cltAcc
		for i := 0; i < 50; i++ {
			a.add(rng.norm() * 5)
		}
		early := cltRange(cltAvg, &a, 4, 0.25, 3.6)
		for i := 0; i < 450; i++ {
			a.add(rng.norm() * 5)
		}
		late := cltRange(cltAvg, &a, 4.0/3, 0.75, 3.6)
		if early.status != rsOK || late.status != rsOK {
			return true
		}
		return late.r.Hi-late.r.Lo < early.r.Hi-early.r.Lo
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// newTestRNG is a tiny gaussian-capable generator for the tests.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG {
	if seed == 0 {
		seed = 1
	}
	return &testRNG{s: seed}
}

func (r *testRNG) next() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s>>11) / (1 << 53)
}

func (r *testRNG) norm() float64 {
	u1 := r.next()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*r.next())
}

// TestReplicaRule pins the replica readers' rule on one value: a
// deviation from a numeric point shrinks by √p, a NULL point or replica
// passes unchanged, and an empty SUM/COUNT slot carries zero mass.
func TestReplicaRule(t *testing.T) {
	r := types.NewFloat(20)
	// p = 1 → no change
	if got := (repRule{pf: 10, sqrtP: 1}).value(r); got.Float() != 20 {
		t.Errorf("sqrtP=1: %v", got)
	}
	// sqrtP = 0.5 → deviation halves
	half := repRule{pf: 10, sqrtP: 0.5, shrink: true}
	if got := half.value(r); got.Float() != 15 {
		t.Errorf("sqrtP=0.5: %v", got)
	}
	// non-numeric passthrough: a NULL point does not shrink, and an int
	// stays an int
	if got := (repRule{sqrtP: 0.5}).value(r); got.Float() != 20 {
		t.Errorf("null point: %v", got)
	}
	if got := (repRule{sqrtP: 0.5}).value(types.NewInt(20)); got.Kind() != types.KindInt {
		t.Errorf("unshrunk int: %v", got)
	}
	if got := half.value(types.Null); !got.IsNull() {
		t.Errorf("null rep: %v", got)
	}
	// zero mass: an empty SUM/COUNT slot reads 0, shrunk about the point
	half.zero = true
	if got := half.value(types.Null); got.IsNull() || got.Float() != 5 {
		t.Errorf("empty extensive slot: %v", got)
	}
}
