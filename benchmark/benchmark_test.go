package main

import (
	"io"
	"math"
	"testing"
	"time"

	"fluodb/internal/types"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) of Python 3.11.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	if _, _, ok := tailPercentile(10); ok {
		t.Error("ten samples cannot have ten beyond any of them")
	}
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{{11, 0, 100.0 / 11}, {100, 89, 90}, {1000, 989, 99}} {
		pct, idx, ok := tailPercentile(c.n)
		if !ok || idx != c.idx || math.Abs(pct-c.pct) > 1e-12 {
			t.Errorf("tailPercentile(%d) = p%v at %d, want p%v at %d", c.n, pct, idx, c.pct, c.idx)
		}
		if beyond := c.n - 1 - idx; beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail percentile, want 10", c.n, beyond)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if d := summarizeDist(xs); d.Tail != 90 || d.TailPct != 90 || d.N != 100 {
		t.Errorf("summarizeDist tail = p%v %v of %d, want p90 = 90 of 100", d.TailPct, d.Tail, d.N)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "a.inner", parent: 1, start: 20, end: 30},
		{name: "b", parent: 0, start: 50, end: 70},
	}
	want := []time.Duration{50, 20, 10, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got, want[i])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	var none *recorder
	none.end(none.begin("ignored")) // a nil recorder records nothing

	r := newRecorder()
	op := r.begin("op")
	a := r.begin("a")
	r.end(a)
	b := r.begin("b")
	r.end(b)
	r.end(op)
	if r.spans[a].parent != op || r.spans[b].parent != op || r.spans[op].parent != -1 || r.open != -1 {
		t.Errorf("parents = %d %d %d, open = %d", r.spans[op].parent, r.spans[a].parent, r.spans[b].parent, r.open)
	}
}

func TestEqualRows(t *testing.T) {
	row := func(k int64, v float64) types.Row { return types.Row{types.NewInt(k), types.NewFloat(v)} }
	want := []types.Row{row(1, 10), row(2, 20)}
	if err := equalRows([]types.Row{row(2, 20*(1+1e-12)), row(1, 10)}, want); err != nil {
		t.Errorf("same rows in another order, within tolerance: %v", err)
	}
	if err := equalRows([]types.Row{row(1, 10), row(2, 20*(1+1e-6))}, want); err == nil {
		t.Error("a cell 1e-6 off passed")
	}
	if err := equalRows([]types.Row{row(1, 10)}, want); err == nil {
		t.Error("a missing row passed")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload lists of the code in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the code", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestTinyRuns runs every workload's traced pass at tiny scale, which also
// holds an untraced op per traced one: every answer check passes, every
// metric of both passes gets a value, the same seed reproduces the tables
// and the engine's counts, and another seed gives other tables.
func TestTinyRuns(t *testing.T) {
	exact := []string{"eps_batch", "core.recomputes", "core.uncertain_max", "core.rows_processed", "core.deterministic_folds"}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, tables: 2, tiny: true, trace: true}
			m := measure(w, cfg)
			if len(m.failures) > 0 {
				t.Fatalf("failed ops: %v", m.failures)
			}
			if m.attempted != cfg.tables {
				t.Errorf("attempted %d ops, want one per table", m.attempted)
			}
			r := summarize(w, cfg, m)
			r.print(io.Discard)
			for _, d := range perLayer {
				if v, ok := r.Metrics[d.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %v", d.name, v.Value)
				}
			}
			cfg.trace = false
			for _, d := range endToEnd {
				if v := summarize(w, cfg, m).Metrics[d.name]; !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
				}
			}

			again := measure(w, config{seed: 7, tables: 1, tiny: true, trace: true})
			if m.inputs[0] != again.inputs[0] {
				t.Errorf("first table: %+v, then %+v from the same seed", m.inputs[0], again.inputs[0])
			}
			for _, name := range exact {
				if a, b := m.counts[name], again.counts[name]; a != b {
					t.Errorf("%s = %v, then %v from the same seed", name, a, b)
				}
			}
			if other := w.setup(8, 0, true, nil); other.checksum == w.setup(7, 0, true, nil).checksum {
				t.Error("seeds 7 and 8 generate the same table")
			}
		})
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := &workloads[0]
	cfg := config{seed: 7, tables: 2, tiny: true}
	r := summarize(w, cfg, measure(w, cfg))
	same := *r
	if ok, err := compare(io.Discard, sp, []*result{r}, []*result{&same}); err != nil || !ok {
		t.Errorf("a result against itself: ok=%v err=%v", ok, err)
	}
	other := *r
	other.Host.CPU = "another model"
	if _, err := compare(io.Discard, sp, []*result{r}, []*result{&other}); err == nil {
		t.Error("results from two CPU models were compared")
	}
	slower := *r
	slower.Metrics = map[string]metricValue{}
	for k, v := range r.Metrics {
		slower.Metrics[k] = metricValue{Value: v.Value * 1.3, Unit: v.Unit}
	}
	if ok, _ := compare(io.Discard, sp, []*result{r}, []*result{&slower}); ok {
		t.Error("a result 30% worse on every metric passed its bounds")
	}
}
