package bootstrap

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterministicAndDistinct(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(1)
	c := NewRNG(2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	diff := false
	a = NewRNG(1)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedOK(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(4)
	n := 100000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		buckets[int(f*10)]++
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	for i, b := range buckets {
		if math.Abs(float64(b)-float64(n)/10) > float64(n)/50 {
			t.Errorf("bucket %d count = %d", i, b)
		}
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestPoisson1Moments(t *testing.T) {
	n := 200000
	var sum, sumsq float64
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		k := PoissonAt(uint64(i))
		sum += float64(k)
		sumsq += float64(k * k)
		counts[k]++
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("Poisson(1) mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Poisson(1) variance = %v", variance)
	}
	// P(0) = e^-1 ≈ 0.3679
	p0 := float64(counts[0]) / float64(n)
	if math.Abs(p0-math.Exp(-1)) > 0.01 {
		t.Errorf("P(0) = %v", p0)
	}
	if counts[8] > n/1000 {
		t.Errorf("tail weight too heavy: %d", counts[8])
	}
}

func TestMeanStdDevRSD(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(StdDev(xs)-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", StdDev(xs), want)
	}
	if math.Abs(RSD(xs)-want/5) > 1e-12 {
		t.Errorf("rsd = %v", RSD(xs))
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs")
	}
	if RSD([]float64{0, 0}) != 0 {
		t.Error("RSD of zeros should be 0")
	}
	if !math.IsInf(RSD([]float64{-1, 1}), 1) {
		t.Error("RSD with zero mean should be +Inf")
	}
}

// percentileCI is PercentileCIInPlace on a copy, leaving reps intact.
func percentileCI(reps []float64, confidence float64) Interval {
	return PercentileCIInPlace(slices.Clone(reps), confidence)
}

func TestPercentileCI(t *testing.T) {
	// replicas 1..100: the 95% CI should be ≈ [3.5, 97.5]
	var reps []float64
	for i := 1; i <= 100; i++ {
		reps = append(reps, float64(i))
	}
	iv := percentileCI(reps, 0.95)
	if iv.Lo < 1 || iv.Lo > 6 || iv.Hi < 95 || iv.Hi > 100 {
		t.Errorf("CI = %+v", iv)
	}
	if !iv.Contains(50) || iv.Contains(200) {
		t.Error("Contains misbehaves")
	}
	if iv.Width() <= 0 {
		t.Error("Width")
	}
	// invalid confidence falls back to 0.95
	iv2 := percentileCI(reps, 42)
	if math.Abs(iv2.Lo-iv.Lo) > 1e-9 {
		t.Error("confidence fallback")
	}
	if got := percentileCI(nil, 0.95); got.Lo != 0 || got.Hi != 0 {
		t.Error("empty input CI")
	}
	one := percentileCI([]float64{7}, 0.95)
	if one.Lo != 7 || one.Hi != 7 {
		t.Errorf("single replica CI = %+v", one)
	}
}

func TestPercentileCICoverageQuick(t *testing.T) {
	// Property: the CI lies within [min, max] of the replicas and the
	// interval is ordered.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		reps := make([]float64, 50)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range reps {
			reps[i] = r.Float64()*100 - 50
			lo = math.Min(lo, reps[i])
			hi = math.Max(hi, reps[i])
		}
		iv := percentileCI(reps, 0.9)
		return iv.Lo <= iv.Hi && iv.Lo >= lo-1e-9 && iv.Hi <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVariationRange(t *testing.T) {
	r := VariationRange(37, []float64{35, 39, 36}, 1)
	if r.Lo != 34 || r.Hi != 40 {
		t.Errorf("range = %+v", r)
	}
	// point estimate outside replicas still covered
	r2 := VariationRange(50, []float64{35, 39}, 0)
	if !r2.Contains(50) {
		t.Error("point estimate must be inside its own range")
	}
	if !r.Contains(34) || !r.Contains(40) || r.Contains(41) {
		t.Error("Contains bounds")
	}
}

func TestPointRange(t *testing.T) {
	p := Point(3)
	if p.Lo != 3 || p.Hi != 3 || !p.Contains(3) || p.Contains(3.0001) {
		t.Errorf("Point = %+v", p)
	}
}

func BenchmarkPoissonAt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = PoissonAt(uint64(i))
	}
}

// BenchmarkPoissonLanes times the engine's weight stream per weight
// (four draws per hash; compare BenchmarkPoissonAt's one).
func BenchmarkPoissonLanes(b *testing.B) {
	var sum uint8
	for i := 0; i < b.N; i++ {
		k0, k1, k2, k3 := PoissonLanes(uint64(i))
		sum += k0 + k1 + k2 + k3
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/weight")
	if sum == 0 && b.N > 1000 {
		b.Fatal("all-zero draws")
	}
}

// TestPoissonLanesDistribution enumerates every 16-bit lane value: the
// lane CDF must reproduce Poisson(1) to within 2⁻¹⁶ per multiplicity,
// put at most 2⁻¹⁶ of its mass at 8 or above, and keep the mean (the
// expected replica weight) within 2⁻¹⁵ of 1.
func TestPoissonLanesDistribution(t *testing.T) {
	var count [9]int
	for v := range laneLut {
		count[min(int(laneLut[v]), 8)]++
	}
	const n = 1 << 16
	pmf := math.Exp(-1)
	mean := 0.0
	for k := 0; k <= 7; k++ {
		if k > 0 {
			pmf /= float64(k)
		}
		p := float64(count[k]) / n
		if d := math.Abs(p - pmf); d > 1.0/n {
			t.Errorf("P(%d) = %v, Poisson(1) %v: off by %v > 2⁻¹⁶", k, p, pmf, d)
		}
		mean += float64(k) * p
	}
	if p8 := float64(count[8]) / n; p8 > 1.0/n {
		t.Errorf("P(≥8) = %v > 2⁻¹⁶", p8)
	}
	if d := math.Abs(mean - 1); d > 2.0/n {
		t.Errorf("mean %v off 1 by %v > 2⁻¹⁵", mean, d)
	}
	// PoissonLanes reads the four lanes of one Mix64, low lane first.
	for key := uint64(0); key < 1000; key++ {
		h := Mix64(key)
		k0, k1, k2, k3 := PoissonLanes(key)
		if k0 != laneLut[uint16(h)] || k1 != laneLut[uint16(h>>16)] ||
			k2 != laneLut[uint16(h>>32)] || k3 != laneLut[uint16(h>>48)] {
			t.Fatalf("PoissonLanes(%d) = %d %d %d %d disagrees with the lanes of Mix64", key, k0, k1, k2, k3)
		}
	}
}

// TestPoissonLanesIndependence checks the two adjacencies the weight
// stream relies on for independent trials — lanes of one word (trials
// 4q..4q+3 of a row) and lane 3 of word w against lane 0 of word w+1
// (trials 4q+3 and 4q+4) — for sample correlation |r| < 4/√n over 2²⁰
// consecutive keys.
func TestPoissonLanesIndependence(t *testing.T) {
	const n = 1 << 20
	type moments struct{ sx, sy, sxx, syy, sxy float64 }
	var pairs [4]moments // (0,1), (1,2), (2,3), (3 of w, 0 of w+1)
	add := func(m *moments, x, y uint8) {
		fx, fy := float64(x), float64(y)
		m.sx += fx
		m.sy += fy
		m.sxx += fx * fx
		m.syy += fy * fy
		m.sxy += fx * fy
	}
	_, _, _, prev3 := PoissonLanes(0)
	for key := uint64(1); key <= n; key++ {
		k0, k1, k2, k3 := PoissonLanes(key)
		add(&pairs[0], k0, k1)
		add(&pairs[1], k1, k2)
		add(&pairs[2], k2, k3)
		add(&pairs[3], prev3, k0)
		prev3 = k3
	}
	bound := 4 / math.Sqrt(n)
	for i, m := range pairs {
		cov := m.sxy/n - (m.sx/n)*(m.sy/n)
		vx := m.sxx/n - (m.sx/n)*(m.sx/n)
		vy := m.syy/n - (m.sy/n)*(m.sy/n)
		if r := cov / math.Sqrt(vx*vy); math.Abs(r) >= bound {
			t.Errorf("lane pair %d: correlation %v, want |r| < %v", i, r, bound)
		}
	}
}

func BenchmarkPercentileCI(b *testing.B) {
	r := NewRNG(1)
	reps := make([]float64, 100)
	for i := range reps {
		reps[i] = r.Float64()
	}
	buf := make([]float64, len(reps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, reps)
		_ = PercentileCIInPlace(buf, 0.95)
	}
}

func TestMix64AndPoissonAtDeterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Error("Mix64 collision on adjacent inputs")
	}
	// counter-based Poisson matches the distribution
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		k := PoissonAt(uint64(i))
		if PoissonAt(uint64(i)) != k {
			t.Fatal("PoissonAt not deterministic")
		}
		sum += float64(k)
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.02 {
		t.Errorf("PoissonAt mean = %v", mean)
	}
}
