// Package metrics is the engine's stdlib-only instrumentation kernel:
// atomic counters and gauges, monotonic nanosecond timers, fixed-bucket
// duration histograms, and a registry that renders everything in the
// Prometheus text exposition format. It has no dependencies beyond the
// standard library and no locks on the observation paths, so metrics
// can be updated from the fold hot loop and from concurrent workers
// without giving back the engine's allocation discipline: every
// observation is a handful of atomic adds on pre-allocated state.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that may go up and down.
type Gauge struct{ v atomic.Int64 }

// Set installs the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the current value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DurationBuckets are the fixed histogram bucket upper bounds in
// seconds: a 1-2-5 ladder from 1µs to 10s. Batch work at any realistic
// scale lands inside; everything slower lands in +Inf.
var DurationBuckets = []float64{
	1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1, 2, 5, 10,
}

// Histogram is a fixed-bucket duration histogram. Buckets are shared
// (DurationBuckets) so histograms are comparable and the per-histogram
// state is one flat atomic array.
type Histogram struct {
	counts []atomic.Int64 // len(DurationBuckets)+1; last is +Inf
	count  atomic.Int64
	sumNs  atomic.Int64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(DurationBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(DurationBuckets, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// ObserveValue records one unitless observation, reading the bucket
// ladder as plain numbers (1e-6 … 10) rather than seconds — relative
// errors and CI widths span exactly that range. Negative and non-finite
// values clamp to zero so a degenerate stat can never corrupt the
// histogram sum.
func (h *Histogram) ObserveValue(v float64) {
	if !(v > 0) { // catches negatives and NaN
		v = 0
	} else if v > 1e9 {
		v = 1e9 // keep the ns-scaled sum far from int64 overflow
	}
	i := sort.SearchFloat64s(DurationBuckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(v * 1e9))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// metric is one registered series. The name may carry a Prometheus
// label set ({...}); HELP/TYPE headers are emitted once per base name,
// so series like `x{phase="join"}` and `x{phase="fold"}` group under
// one family.
type metric struct {
	name string
	base string
	help string
	kind string // "counter", "gauge", "histogram"
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() float64 // gauge callback, when non-nil
}

// Registry names metrics and renders them as Prometheus text. Lookups
// and registration take a lock; the returned metric handles are
// lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// baseName strips a trailing {label} set.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register installs a series, or returns the existing one with the same
// full name (registration is idempotent so servers can re-register on
// reuse). Kind conflicts panic: they are programming errors.
func (r *Registry) register(name, help, kind string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, base: baseName(name), help: help, kind: kind}
	switch kind {
	case "counter":
		m.c = &Counter{}
	case "gauge":
		m.g = &Gauge{}
	case "histogram":
		m.h = newHistogram()
	}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter").c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge").g
}

// GaugeFunc registers a gauge whose value is sampled at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, "gauge")
	m.fn = fn
}

// Histogram registers (or fetches) a fixed-bucket duration histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, "histogram").h
}

// series splits a full name into (base, label-content) where labels is
// the inside of the {...} set, or "".
func seriesLabels(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name[i+1:], "}")
	}
	return ""
}

// withLabel renders base{existing,extra} (either part may be empty).
func withLabel(base, existing, extra string) string {
	switch {
	case existing == "" && extra == "":
		return base
	case existing == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + existing + "}"
	default:
		return base + "{" + existing + "," + extra + "}"
	}
}

// WritePrometheus renders every registered series in the text
// exposition format (version 0.0.4). HELP/TYPE headers are emitted once
// per metric family, in first-registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	seenHeader := map[string]bool{}
	for _, m := range ms {
		if !seenHeader[m.base] {
			seenHeader[m.base] = true
			fmt.Fprintf(w, "# HELP %s %s\n", m.base, m.help)
			fmt.Fprintf(w, "# TYPE %s %s\n", m.base, m.kind)
		}
		labels := seriesLabels(m.name)
		switch m.kind {
		case "counter":
			fmt.Fprintf(w, "%s %d\n", m.name, m.c.Load())
		case "gauge":
			if m.fn != nil {
				fmt.Fprintf(w, "%s %g\n", m.name, m.fn())
			} else {
				fmt.Fprintf(w, "%s %d\n", m.name, m.g.Load())
			}
		case "histogram":
			var cum int64
			for i, b := range DurationBuckets {
				cum += m.h.counts[i].Load()
				le := `le="` + strconv.FormatFloat(b, 'g', -1, 64) + `"`
				fmt.Fprintf(w, "%s %d\n", withLabel(m.base+"_bucket", labels, le), cum)
			}
			cum += m.h.counts[len(DurationBuckets)].Load()
			fmt.Fprintf(w, "%s %d\n", withLabel(m.base+"_bucket", labels, `le="+Inf"`), cum)
			fmt.Fprintf(w, "%s %g\n", withLabel(m.base+"_sum", labels, ""), m.h.Sum().Seconds())
			fmt.Fprintf(w, "%s %d\n", withLabel(m.base+"_count", labels, ""), m.h.Count())
		}
	}
}
