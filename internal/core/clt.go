package core

import (
	"math"

	"fluodb/internal/bootstrap"
	"fluodb/internal/plan"
	"fluodb/internal/types"
)

// CLT-based variation ranges.
//
// Bootstrap replicas generalize to arbitrary aggregates but need
// per-group evidence, which a bounded subsample cannot provide when a
// correlated subquery has thousands of groups (TPC-H Q17's per-part
// averages). For the standard estimable aggregates — AVG, SUM, COUNT —
// the sampling error of the running estimate has a closed form, so the
// engine maintains O(1) Welford moments per (group, aggregate) and
// derives variation ranges as point ± z·SE, with a finite-population
// correction √(1−f) that collapses the range as the scan completes.
// Bootstrap replicas remain the fallback for every other aggregate and
// stay in use for confidence-interval reporting.

// cltKind classifies an aggregate for closed-form range estimation.
type cltKind uint8

const (
	cltNone cltKind = iota
	cltAvg
	cltSum
	cltCount
)

// cltKindOf maps an aggregate spec to its CLT class.
func cltKindOf(a *plan.AggSpec) cltKind {
	if a.Distinct {
		return cltNone
	}
	switch a.Name {
	case "AVG":
		return cltAvg
	case "SUM":
		return cltSum
	case "COUNT":
		return cltCount
	default:
		return cltNone
	}
}

// cltAcc is a Welford accumulator over an aggregate's (non-NULL) input
// values.
type cltAcc struct {
	n    float64
	mean float64
	m2   float64
}

func (a *cltAcc) add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / a.n
	a.m2 += d * (x - a.mean)
}

func (a *cltAcc) variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / (a.n - 1)
}

// cltRange derives the variation range of one aggregate slot.
//
//	f     — fraction of the block's table processed
//	scale — extensive multiplicity 1/f
//	z     — total half-width multiplier (base z + ε, times any boost)
//
// It returns rsUnknown when the accumulator carries too little evidence:
// no input at all (SUM and AVG read NULL and COUNT reads 0 so far, but
// the rest of the table may hold input), too few observations to
// identify the variance, or a hairline standard error before completion.
func cltRange(kind cltKind, a *cltAcc, scale, f, z float64) paramRange {
	if kind == cltNone || a.n == 0 {
		return paramRange{status: rsUnknown}
	}
	rem := max(1-f, 0)
	sd := math.Sqrt(a.variance())
	// The sample standard deviation from few observations underestimates
	// σ often enough to make committed ranges fragile; inflate by a
	// rough χ²-style small-sample factor (→1 as n grows).
	smallN := math.Sqrt((a.n + 3) / math.Max(a.n-1, 1))
	var point, se float64
	switch kind {
	case cltAvg:
		// The AVG range is pure sd — a handful of (possibly identical)
		// observations identifies it too poorly to commit against.
		if a.n < 4 {
			return paramRange{status: rsUnknown}
		}
		point = a.mean
		se = sd * smallN / math.Sqrt(a.n) * math.Sqrt(rem)
	case cltSum:
		if a.n < 2 {
			return paramRange{status: rsUnknown}
		}
		point = scale * a.n * a.mean
		se = scale * math.Sqrt(a.n*rem*(sd*sd*smallN*smallN+a.mean*a.mean))
	case cltCount:
		point = scale * a.n
		se = scale * math.Sqrt(a.n*rem)
	}
	// Degenerate: no dispersion information. Written as !(se > ·) so a
	// NaN error or a non-finite point is refused too.
	if rem > 0 && !(se > 1e-9*(1+math.Abs(point))) {
		return paramRange{status: rsUnknown}
	}
	return okRange(bootstrap.Range{Lo: point - z*se, Hi: point + z*se})
}

// cltZBase is the base half-width multiplier, matching the effective
// coverage of a 100-trial bootstrap min/max range (~±2.6σ).
const cltZBase = 2.6

// cltRowRanges builds per-slot variation ranges for a group entry's
// post-aggregate row: group-key slots are exact points; CLT-estimable
// aggregate slots get closed-form ranges; the rest are unknown.
func (e *Engine) cltRowRanges(r *blockRunner, en *onlineEntry, post types.Row, scale, f, z float64, out []paramRange) []paramRange {
	b := r.b
	out = out[:0]
	for c := range post {
		if c < len(b.GroupBy) {
			if fv, ok := post[c].AsFloat(); ok {
				out = append(out, okRange(bootstrap.Point(fv)))
			} else {
				out = append(out, paramRange{status: rsUnknown})
			}
			continue
		}
		ia := c - len(b.GroupBy)
		if en.clt == nil || r.cltKinds[ia] == cltNone {
			out = append(out, paramRange{status: rsUnknown})
			continue
		}
		out = append(out, cltRange(r.cltKinds[ia], &en.clt[ia], scale, f, z))
	}
	return out
}
