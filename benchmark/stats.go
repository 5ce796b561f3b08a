package main

import "sort"

// dist summarises the samples of one timing metric.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct/Tail are the highest percentile that still has ten samples
	// beyond it, and its value; both are 0 below eleven samples.
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule the
// driver applies to the spread between runs, so that the quartiles printed
// per run and the spread computed across runs mean the same thing.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quartilesSorted(sorted(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func quartilesSorted(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the plain sample median (mean of the middle two when even).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailPercentile returns the highest percentile of n samples that has at
// least ten samples beyond it, as (percentile, 0-based index into the sorted
// samples). ok is false below eleven samples.
func tailPercentile(n int) (pct float64, idx int, ok bool) {
	if n < 11 {
		return 0, 0, false
	}
	idx = n - 11
	return 100 * float64(idx+1) / float64(n), idx, true
}

func summarizeDist(xs []float64) dist {
	s := sorted(xs)
	d := dist{N: len(s)}
	d.Q1, d.Median, d.Q3 = quartilesSorted(s)
	if pct, idx, ok := tailPercentile(len(s)); ok {
		d.TailPct, d.Tail = pct, s[idx]
	}
	return d
}
