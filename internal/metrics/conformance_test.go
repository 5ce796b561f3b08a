package metrics

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Strict Prometheus text-exposition conformance: parse the registry's
// output with an unforgiving line-level parser and check the format
// invariants a real scraper depends on — HELP/TYPE exactly once per
// base family and before any sample of it, histogram buckets cumulative
// and monotone ending at +Inf, _sum/_count consistent with the bucket
// totals, and every labeled series well-formed.

// expoSample is one parsed sample line.
type expoSample struct {
	base   string
	labels map[string]string
	value  float64
}

// parseExposition parses Prometheus text format strictly, failing on
// anything a scraper would reject.
func parseExposition(t *testing.T, text string) (helps, types map[string]string, samples []expoSample) {
	t.Helper()
	helps = map[string]string{}
	types = map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" {
			continue
		}
		if strings.HasPrefix(l, "# HELP ") {
			rest := strings.TrimPrefix(l, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" || help == "" {
				t.Fatalf("line %d: malformed HELP: %q", line, l)
			}
			if _, dup := helps[name]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", line, name)
			}
			helps[name] = help
			continue
		}
		if strings.HasPrefix(l, "# TYPE ") {
			rest := strings.TrimPrefix(l, "# TYPE ")
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", line, l)
			}
			name, kind := parts[0], parts[1]
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid TYPE %q", line, kind)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", line, name)
			}
			if _, ok := helps[name]; !ok {
				t.Fatalf("line %d: TYPE %s before its HELP", line, name)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(l, "#") {
			t.Fatalf("line %d: unknown comment form: %q", line, l)
		}
		s := parseSampleLine(t, line, l)
		family := histogramFamily(s.base)
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %s before its TYPE header", line, s.base)
		}
		samples = append(samples, s)
	}
	return helps, types, samples
}

// parseSampleLine parses `name{l1="v1",...} value`.
func parseSampleLine(t *testing.T, line int, l string) expoSample {
	t.Helper()
	nameEnd := strings.IndexAny(l, "{ ")
	if nameEnd <= 0 {
		t.Fatalf("line %d: malformed sample: %q", line, l)
	}
	s := expoSample{base: l[:nameEnd], labels: map[string]string{}}
	if !validMetricName(s.base) {
		t.Fatalf("line %d: invalid metric name %q", line, s.base)
	}
	rest := l[nameEnd:]
	if rest[0] == '{' {
		close := strings.IndexByte(rest, '}')
		if close < 0 {
			t.Fatalf("line %d: unterminated label set: %q", line, l)
		}
		for _, pair := range strings.Split(rest[1:close], ",") {
			if pair == "" {
				continue
			}
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: malformed label %q in %q", line, pair, l)
			}
			if !validLabelName(k) {
				t.Fatalf("line %d: invalid label name %q", line, k)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("line %d: label value %s does not unquote: %v", line, v, err)
			}
			s.labels[k] = uq
		}
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		t.Fatalf("line %d: expected exactly one value: %q", line, l)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", line, fields[0], err)
	}
	s.value = v
	return s
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

func validLabelName(s string) bool {
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != "" && !strings.HasPrefix(s, "__")
}

// histogramFamily maps _bucket/_sum/_count sample names to their family.
func histogramFamily(base string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(base, suf); ok {
			return f
		}
	}
	return base
}

// buildConformanceRegistry populates one of every metric shape the
// engine registers, including multi-series labeled families.
func buildConformanceRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("conf_ops_total", "Operations.")
	c.Add(42)
	g := r.Gauge("conf_depth", "Queue depth.")
	g.Set(-7)
	r.GaugeFunc("conf_ratio", "A sampled ratio.", func() float64 { return 0.25 })
	h := r.Histogram("conf_latency_seconds", "Latency.")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 3 * time.Millisecond, 2 * time.Second, time.Minute} {
		h.Observe(d) // time.Minute lands in +Inf
	}
	for _, phase := range []string{"join", "fold", "snapshot"} {
		ph := r.Histogram(fmt.Sprintf("conf_phase_seconds{phase=%q}", phase), "Per-phase time.")
		ph.Observe(5 * time.Millisecond)
		ph.Observe(50 * time.Millisecond)
	}
	r.Counter(`conf_churn_total{dir="in"}`, "Flows.").Add(3)
	r.Counter(`conf_churn_total{dir="out"}`, "Flows.").Add(5)
	return r
}

func TestExpositionConformance(t *testing.T) {
	var sb strings.Builder
	buildConformanceRegistry().WritePrometheus(&sb)
	text := sb.String()
	helps, types, samples := parseExposition(t, text)

	// Every family has exactly one HELP and one TYPE (duplicates already
	// fail in the parser), and every sample's family is typed.
	for name := range helps {
		if _, ok := types[name]; !ok {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
	}
	wantTypes := map[string]string{
		"conf_ops_total":       "counter",
		"conf_depth":           "gauge",
		"conf_ratio":           "gauge",
		"conf_latency_seconds": "histogram",
		"conf_phase_seconds":   "histogram",
		"conf_churn_total":     "counter",
	}
	for name, kind := range wantTypes {
		if types[name] != kind {
			t.Errorf("family %s has TYPE %q, want %q", name, types[name], kind)
		}
	}

	// Counters must be non-negative; the labeled counter family carries
	// one series per label set.
	churn := map[string]float64{}
	for _, s := range samples {
		if types[histogramFamily(s.base)] == "counter" && s.value < 0 {
			t.Errorf("counter %s negative: %g", s.base, s.value)
		}
		if s.base == "conf_churn_total" {
			churn[s.labels["dir"]] = s.value
		}
	}
	if churn["in"] != 3 || churn["out"] != 5 {
		t.Errorf("labeled counter series wrong: %v", churn)
	}

	// Histogram invariants, per (family, non-le label set).
	checkHistogram(t, samples, "conf_latency_seconds", "")
	for _, phase := range []string{"join", "fold", "snapshot"} {
		checkHistogram(t, samples, "conf_phase_seconds", phase)
	}
}

// checkHistogram asserts the bucket ladder of one histogram series is
// cumulative, monotone, ends at +Inf, and agrees with _count; _sum must
// be consistent with the observations' bucket placement.
func checkHistogram(t *testing.T, samples []expoSample, family, phase string) {
	t.Helper()
	var les []float64
	var cums []float64
	var sum, count float64
	var haveSum, haveCount bool
	for _, s := range samples {
		if phase != "" && s.labels["phase"] != phase {
			continue
		}
		switch s.base {
		case family + "_bucket":
			le, err := parseValue(s.labels["le"])
			if err != nil {
				t.Fatalf("%s: bucket without parsable le: %v", family, s.labels)
			}
			les = append(les, le)
			cums = append(cums, s.value)
		case family + "_sum":
			sum, haveSum = s.value, true
		case family + "_count":
			count, haveCount = s.value, true
		}
	}
	if len(les) == 0 {
		t.Fatalf("%s{phase=%q}: no buckets", family, phase)
	}
	if !haveSum || !haveCount {
		t.Fatalf("%s{phase=%q}: missing _sum or _count", family, phase)
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("%s{phase=%q}: bucket ladder does not end at +Inf (last le=%g)", family, phase, les[len(les)-1])
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] {
			t.Fatalf("%s{phase=%q}: le bounds not increasing: %g after %g", family, phase, les[i], les[i-1])
		}
		if cums[i] < cums[i-1] {
			t.Fatalf("%s{phase=%q}: bucket counts not cumulative: le=%g has %g < %g", family, phase, les[i], cums[i], cums[i-1])
		}
	}
	if cums[len(cums)-1] != count {
		t.Fatalf("%s{phase=%q}: +Inf bucket %g != _count %g", family, phase, cums[len(cums)-1], count)
	}
	if count > 0 && sum < 0 {
		t.Fatalf("%s{phase=%q}: negative duration sum %g", family, phase, sum)
	}
	// Sum consistency: each observation lies at or below its bucket's
	// upper bound, so sum <= Σ (bucket delta × le), with +Inf deltas
	// bounded by the known observations (here: only finite checks).
	var upper float64
	for i := range les {
		delta := cums[i]
		if i > 0 {
			delta -= cums[i-1]
		}
		if math.IsInf(les[i], 1) {
			if delta > 0 {
				upper = math.Inf(1)
			}
			continue
		}
		upper += delta * les[i]
	}
	if !math.IsInf(upper, 1) && sum > upper+1e-9 {
		t.Fatalf("%s{phase=%q}: _sum %g exceeds bucket-implied upper bound %g", family, phase, sum, upper)
	}
}

// TestEngineRegistryConformance runs the same strict parser over the
// exact families the dashboard registers, so the real /metrics payload
// (not just a synthetic registry) is conformance-checked.
func TestEngineRegistryConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("fluodb_queries_total", "Online queries started.").Inc()
	h := r.Histogram(`fluodb_phase_seconds{phase="fold"}`, "Per-phase time.")
	h.Observe(2 * time.Millisecond)
	r.Histogram(`gola_ci_halfwidth{q="max"}`, "Half-width quantiles.").ObserveValue(0.017)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	_, types, samples := parseExposition(t, sb.String())
	if types["gola_ci_halfwidth"] != "histogram" {
		t.Fatalf("gola_ci_halfwidth TYPE = %q", types["gola_ci_halfwidth"])
	}
	checkHistogram(t, samples, "gola_ci_halfwidth", "")
	// ObserveValue(0.017) lands in the le=0.02 bucket of the 1-2-5 ladder.
	for _, s := range samples {
		if s.base == "gola_ci_halfwidth_bucket" && s.labels["le"] == "0.02" && s.value != 1 {
			t.Fatalf("0.017 not in le=0.02 bucket: %+v", s)
		}
	}
}

// TestMemFamiliesConformance runs the strict parser over the
// resource-ledger families exactly as the dashboard registers them —
// a labeled multi-series gauge family (gola_mem_bytes{pool=...}),
// plain gauges, and the reason-split eviction counter — so the
// /metrics payload of a budgeted query is scraper-clean.
func TestMemFamiliesConformance(t *testing.T) {
	r := NewRegistry()
	pools := []string{"group-tables", "uncertain-cache", "col-scratch",
		"segment-cache", "checkpoint"}
	for i, p := range pools {
		r.Gauge(fmt.Sprintf("gola_mem_bytes{pool=%q}", p),
			"Resource-ledger residency per pool (bytes).").Set(int64(100 * (i + 1)))
	}
	r.Gauge("gola_mem_total_bytes", "Total ledger residency (bytes).").Set(1500)
	r.Gauge("gola_mem_peak_bytes", "High-water ledger residency (bytes).").Set(4096)
	r.Gauge("gola_mem_degrade_rung", "Highest degradation rung engaged.").Set(2)
	r.Counter("gola_gc_pause_ns_total", "GC pause nanoseconds.").Add(12345)
	r.Counter("gola_gc_cycles_total", "GC cycles.").Add(7)
	r.Gauge("gola_gc_heap_live_bytes", "Live heap bytes.").Set(1 << 20)
	r.Gauge("gola_gc_heap_goal_bytes", "GC heap goal bytes.").Set(2 << 20)
	const evictHelp = "Uncertain tuples force-resolved, by reason."
	r.Counter(`gola_uncertain_evictions{reason="cap"}`, evictHelp).Add(3)
	r.Counter(`gola_uncertain_evictions{reason="budget"}`, evictHelp).Add(5)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	_, types, samples := parseExposition(t, sb.String())
	for name, kind := range map[string]string{
		"gola_mem_bytes":           "gauge",
		"gola_mem_total_bytes":     "gauge",
		"gola_mem_peak_bytes":      "gauge",
		"gola_mem_degrade_rung":    "gauge",
		"gola_gc_pause_ns_total":   "counter",
		"gola_gc_cycles_total":     "counter",
		"gola_gc_heap_live_bytes":  "gauge",
		"gola_gc_heap_goal_bytes":  "gauge",
		"gola_uncertain_evictions": "counter",
	} {
		if types[name] != kind {
			t.Errorf("family %s has TYPE %q, want %q", name, types[name], kind)
		}
	}
	// One series per pool, each with its label intact; the eviction
	// counter carries both reasons.
	poolVals := map[string]float64{}
	evict := map[string]float64{}
	for _, s := range samples {
		switch s.base {
		case "gola_mem_bytes":
			poolVals[s.labels["pool"]] = s.value
		case "gola_uncertain_evictions":
			evict[s.labels["reason"]] = s.value
		}
	}
	if len(poolVals) != len(pools) {
		t.Fatalf("pool series = %d, want %d: %v", len(poolVals), len(pools), poolVals)
	}
	for i, p := range pools {
		if poolVals[p] != float64(100*(i+1)) {
			t.Errorf("pool %q = %g, want %d", p, poolVals[p], 100*(i+1))
		}
	}
	if evict["cap"] != 3 || evict["budget"] != 5 {
		t.Errorf("eviction reason split = %v", evict)
	}
}
