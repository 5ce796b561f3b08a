package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	if g.Load() != 5 {
		t.Errorf("gauge = %d, want 5", g.Load())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("same name should return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict should panic")
		}
	}()
	r.Gauge("x_total", "conflict")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "durations")
	h.Observe(1500 * time.Nanosecond) // → le=2e-06
	h.Observe(3 * time.Millisecond)   // → le=5e-03
	h.Observe(time.Minute)            // → +Inf
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE d_seconds histogram",
		`d_seconds_bucket{le="1e-06"} 0`,
		`d_seconds_bucket{le="2e-06"} 1`,
		`d_seconds_bucket{le="0.005"} 2`,
		`d_seconds_bucket{le="+Inf"} 3`,
		"d_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`p_seconds{phase="join"}`, "per-phase time").Observe(time.Millisecond)
	r.Histogram(`p_seconds{phase="fold"}`, "per-phase time").Observe(2 * time.Millisecond)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if strings.Count(out, "# TYPE p_seconds histogram") != 1 {
		t.Errorf("family header should appear once:\n%s", out)
	}
	for _, want := range []string{
		`p_seconds_bucket{phase="join",le="0.001"} 1`,
		`p_seconds_bucket{phase="fold",le="+Inf"} 1`,
		`p_seconds_sum{phase="fold"} 0.002`,
		`p_seconds_count{phase="join"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("live", "sampled at render", func() float64 { return 42 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "live 42") {
		t.Errorf("gauge func value missing:\n%s", sb.String())
	}
}

// Concurrent observation must be clean under -race.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "n")
	h := r.Histogram("t_seconds", "t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 || h.Count() != 8000 {
		t.Errorf("counts: %d, %d", c.Load(), h.Count())
	}
}

func TestObserveValueUnitless(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rel_err", "relative error")
	h.ObserveValue(0.0000015) // → le=2e-06
	h.ObserveValue(0.003)     // → le=0.005
	h.ObserveValue(42)        // → +Inf
	h.ObserveValue(-1)        // clamps to the smallest bucket
	h.ObserveValue(math.NaN())
	h.ObserveValue(math.Inf(1)) // clamps finite: sum must stay finite
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`rel_err_bucket{le="2e-06"} 3`, // 1.5e-6 plus the two clamped zeros
		`rel_err_bucket{le="0.005"} 4`,
		`rel_err_bucket{le="+Inf"} 6`,
		"rel_err_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// _sum renders through Seconds(), which for unitless observations
	// must give back the plain total.
	if s := h.Sum().Seconds(); s < 42 || s > 2e9 {
		t.Fatalf("unitless sum round-trip broken: %g", s)
	}
}
