// Package bootstrap implements the statistics layer of FluoDB: a fast
// deterministic RNG, Poisson(1) multiplicities for poissonized bootstrap
// resampling (the BlinkDB-style estimator the paper builds on, §2.2),
// percentile confidence intervals, relative standard deviation, and the
// variation ranges R(u) = [min(û)−ε, max(û)+ε] that drive G-OLA's
// uncertain/deterministic tuple classification (§3.2).
package bootstrap

import (
	"math"
	"sort"
)

// RNG is a small, fast xorshift128+ generator. It is deterministic for a
// given seed, which makes every experiment in this repository exactly
// reproducible.
type RNG struct {
	s0, s1 uint64
}

// NewRNG seeds a generator. Seed 0 is remapped to a fixed constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	// splitmix64 to fill the state from the seed
	r := &RNG{}
	z := seed
	next := func() uint64 {
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	r.s1 = x ^ y ^ (x >> 17) ^ (y >> 26)
	return r.s1 + y
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics for n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("bootstrap: Intn requires n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// poisson1Thresholds holds cumulative P(X<=k) for X ~ Poisson(1), scaled
// to 64-bit fixed point, so a multiplicity costs one RNG draw plus a tiny
// scan. P(X<=7) > 1 - 1e-7; the tail falls through to k=8.
var poisson1Thresholds = func() [8]uint64 {
	var out [8]uint64
	p := math.Exp(-1)
	cum := 0.0
	fact := 1.0
	for k := 0; k <= 7; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		cum += p / fact
		c := cum
		if c > 1 {
			c = 1
		}
		out[k] = uint64(c * float64(math.MaxUint64))
	}
	return out
}()

// poisson1Lut maps the top 8 bits of a draw to its multiplicity when
// every draw in that bucket resolves to the same k (all but the ~8
// buckets a threshold falls inside; those hold 0xFF and take the scan).
// One predictable L1 load replaces a data-dependent compare chain.
var poisson1Lut = func() [256]uint8 {
	var lut [256]uint8
	for b := range lut {
		lo := uint64(b) << 56
		hi := lo | (1<<56 - 1)
		if kLo, kHi := poissonScan(lo), poissonScan(hi); kLo == kHi {
			lut[b] = uint8(kLo)
		} else {
			lut[b] = 0xFF
		}
	}
	return lut
}()

// poissonFromBits inverts the Poisson(1) CDF for one 64-bit draw.
func poissonFromBits(u uint64) int {
	if k := poisson1Lut[u>>56]; k != 0xFF {
		return int(k)
	}
	return poissonScan(u)
}

func poissonScan(u uint64) int {
	for k, th := range poisson1Thresholds {
		if u <= th {
			return k
		}
	}
	return len(poisson1Thresholds)
}

// Mix64 is a splitmix64-style finalizer: a counter-based hash usable as
// a stateless RNG. Identical inputs always produce identical outputs,
// which G-OLA's failure-recovery replay relies on to regenerate the
// exact per-(tuple, trial) bootstrap multiplicities.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// PoissonAt derives the Poisson(1) multiplicity for a given counter key
// (deterministic; see Mix64): one hash per draw. The engine's weight
// stream is PoissonLanes; this single-draw form stays for the benchmark
// module's bootstrap.poisson_ns_per_weight micro-measurement.
func PoissonAt(key uint64) int {
	return poissonFromBits(Mix64(key))
}

// laneCuts is the Poisson(1) CDF at 16-bit resolution: a lane value v
// draws the smallest k with v < laneCuts[k]. Each cut is P(X ≤ k)·2¹⁶
// rounded to the nearest integer, so every probability is within 2⁻¹⁶
// of Poisson(1)'s; the last cut is 2¹⁶, truncating the tail P(X ≥ 8)
// ≈ 1.0·10⁻⁵ < 2⁻¹⁶ into k = 7.
var laneCuts = func() [8]uint32 {
	var out [8]uint32
	p, cum := math.Exp(-1), 0.0
	for k := range out {
		if k > 0 {
			p /= float64(k)
		}
		cum += p
		out[k] = uint32(math.Round(cum * (1 << 16)))
	}
	out[len(out)-1] = 1 << 16
	return out
}()

// laneLut is laneCuts inverted at every lane value: one load per draw.
// A 4096-entry table on the top 12 bits (4 KiB instead of 64 KiB) would
// stay in L1, but resolving its ambiguous buckets costs enough code that
// PoissonLanes would no longer inline — and an out-of-line call in the
// columnar fold's lane loop spills the bank cells it keeps in registers.
var laneLut = func() [1 << 16]uint8 {
	var lut [1 << 16]uint8
	k := 0
	for v := range lut {
		for uint32(v) >= laneCuts[k] {
			k++
		}
		lut[v] = uint8(k)
	}
	return lut
}()

// PoissonLanes derives four independent Poisson(1) multiplicities from
// one hash: lane l is bits [16l, 16l+16) of Mix64(key), inverted through
// the 16-bit CDF (laneCuts). Every value is in 0..7. This is the engine's
// one bootstrap weight stream — the byte weights cached uncertain rows
// retain, the float weights of the row fold and the columnar fold's lane
// loop all read it, so replay, resume, serial and parallel runs draw
// identical multiplicities.
func PoissonLanes(key uint64) (k0, k1, k2, k3 uint8) {
	h := Mix64(key)
	return laneLut[uint16(h)], laneLut[uint16(h>>16)], laneLut[uint16(h>>32)], laneLut[h>>48]
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// RSD is the relative standard deviation stddev/|mean| (the y-axis of
// Figure 3(a)); it returns +Inf when the mean is zero but spread is not,
// and 0 when both are zero.
func RSD(xs []float64) float64 {
	m := Mean(xs)
	s := StdDev(xs)
	if m == 0 {
		if s == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s / math.Abs(m)
}

// Interval is a confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies in [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// PercentileCIInPlace computes a percentile-method bootstrap confidence
// interval at the given confidence level (e.g. 0.95; outside (0, 1) it
// falls back to 0.95) from replica estimates. It reorders the caller's
// slice in place, so hot paths pass reusable scratch. For empty input
// it returns a degenerate zero interval.
//
// The interval only needs four order statistics (the two quantile
// positions and their interpolation neighbors), so instead of fully
// sorting it quickselects them — O(n) instead of O(n log n), which is
// the dominant per-group snapshot cost with many groups. The selected
// values are the exact order statistics a full sort would place at
// those positions, so the interval equals the sorted computation (bit
// for bit, except that -0.0/0.0 ties — unordered under < — may land in
// either position, a difference invisible to ==); inputs containing
// NaN (no total order) fall back to the sort so legacy behavior is
// preserved exactly.
func PercentileCIInPlace(replicas []float64, confidence float64) Interval {
	if len(replicas) == 0 {
		return Interval{}
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	n := len(replicas)
	alpha := (1 - confidence) / 2
	if n >= 32 && !hasNaN(replicas) {
		// The same floor arithmetic as quantileSorted: the interval reads
		// s[iLo], s[iLo+1], s[iHi] and s[iHi+1].
		iLo := int(math.Floor(alpha * float64(n-1)))
		iHi := int(math.Floor((1 - alpha) * float64(n-1)))
		if iLo+2 <= iHi && iHi+1 < n {
			// Both quantiles sit near the extremes at the usual confidence
			// levels (a 95% interval on n replicas reads ranks ~n/40 from
			// each end), so a bounded scan keeping the kL smallest and kH
			// largest values beats a general selection: one pass, and the
			// running bound rejects almost every element with one compare.
			kL, kH := iLo+2, n-iHi
			if kL+kH <= n/2 && kL <= 64 && kH <= 64 {
				var lows, highs [64]float64
				tailExtremes(replicas, lows[:kL], highs[:kH])
				pLo := alpha * float64(n-1)
				pHi := (1 - alpha) * float64(n-1)
				lo := interpPair(lows[iLo], lows[iLo+1], pLo, iLo)
				hi := interpPair(highs[kH-1], highs[kH-2], pHi, iHi)
				return Interval{Lo: lo, Hi: hi}
			}
			selectFloat(replicas, iLo)
			selectFloat(replicas[iLo+1:], 0)
			selectFloat(replicas[iLo+2:], iHi-(iLo+2))
			selectFloat(replicas[iHi+1:], 0)
			lo := quantileSorted(replicas, alpha)
			hi := quantileSorted(replicas, 1-alpha)
			return Interval{Lo: lo, Hi: hi}
		}
	}
	sort.Float64s(replicas)
	lo := quantileSorted(replicas, alpha)
	hi := quantileSorted(replicas, 1-alpha)
	return Interval{Lo: lo, Hi: hi}
}

// tailExtremes fills lows with the len(lows) smallest elements of s in
// ascending order and highs with the len(highs) largest in descending
// order (so highs[k-1] is the k-th largest). One pass; each element is
// usually rejected by a single compare against the current bound.
// NaN-free input required.
func tailExtremes(s []float64, lows, highs []float64) {
	kL, kH := len(lows), len(highs)
	// Seed from the prefix: the first max(kL, kH) elements initialize
	// both bounds via insertion.
	nl, nh := 0, 0
	for _, x := range s {
		if nl < kL {
			j := nl
			for j > 0 && lows[j-1] > x {
				lows[j] = lows[j-1]
				j--
			}
			lows[j] = x
			nl++
		} else if x < lows[kL-1] {
			j := kL - 1
			for j > 0 && lows[j-1] > x {
				lows[j] = lows[j-1]
				j--
			}
			lows[j] = x
		}
		if nh < kH {
			j := nh
			for j > 0 && highs[j-1] < x {
				highs[j] = highs[j-1]
				j--
			}
			highs[j] = x
			nh++
		} else if x > highs[kH-1] {
			j := kH - 1
			for j > 0 && highs[j-1] < x {
				highs[j] = highs[j-1]
				j--
			}
			highs[j] = x
		}
	}
}

// interpPair is quantileSorted's interpolation given the two order
// statistics s[i] and s[i+1] directly (pos = q·(n-1), i = floor(pos)):
// the identical expression, so results match bit for bit.
func interpPair(a, b, pos float64, i int) float64 {
	frac := pos - float64(i)
	return a*(1-frac) + b*frac
}

// hasNaN reports whether any element is NaN (which has no total order,
// so selection and sorting could disagree on placement).
func hasNaN(s []float64) bool {
	for _, x := range s {
		if x != x {
			return true
		}
	}
	return false
}

// selectFloat partially orders s so that s[k] holds the k-th smallest
// element, everything before it is <= s[k] and everything after is
// >= s[k] (the classic Hoare quickselect with a median-of-three pivot).
// NaN-free input required.
func selectFloat(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for hi-lo >= 16 {
		mid := lo + (hi-lo)/2
		pv := median3(s[lo], s[mid], s[hi])
		i, j := lo, hi
		for i <= j {
			for s[i] < pv {
				i++
			}
			for s[j] > pv {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return // j < k < i: s[k] already equals the pivot value
		}
	}
	// Small range: insertion sort places every element exactly.
	for i := lo + 1; i <= hi; i++ {
		x := s[i]
		j := i - 1
		for j >= lo && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

// quantileSorted returns the q-quantile of a sorted slice with linear
// interpolation.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Range is a variation range: the set of values an uncertain aggregate
// may take across the remaining mini-batches (§3.2 of the paper).
type Range struct {
	Lo, Hi float64
}

// VariationRange builds R(u) = [min(û)−ε, max(û)+ε] from the bootstrap
// replica values û and the slack ε. The current point estimate is
// included so the committed range always covers the running value.
func VariationRange(point float64, replicas []float64, eps float64) Range {
	lo, hi := point, point
	for _, x := range replicas {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return Range{Lo: lo - eps, Hi: hi + eps}
}

// Contains reports whether x lies in the range.
func (r Range) Contains(x float64) bool { return x >= r.Lo && x <= r.Hi }

// Point builds a degenerate range {x} (the variation range of a
// deterministic value, as the paper defines R(d) = {d}).
func Point(x float64) Range { return Range{Lo: x, Hi: x} }
