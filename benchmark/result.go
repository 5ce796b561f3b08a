package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"fluodb/internal/bootstrap"
)

// metricDef names a metric the benchmark reports. BENCHMARK.json lists the
// same names with their bounds; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"first_answer_ms", "ms"},
	{"time_to_eps_ms", "ms"},
	{"total_online_ms", "ms"},
	{"batch_ms", "ms"},
	{"query_mem_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"sqlparser.parse_us", "us"},
	{"plan.compile_us", "us"},
	{"core.new_warm_us", "us"},
	{"core.step_first_ms", "ms"},
	{"core.step_median_ms", "ms"},
	{"core.step_max_ms", "ms"},
	{"core.weights_ms", "ms"},
	{"core.fold_ms", "ms"},
	{"core.join_ms", "ms"},
	{"core.classify_ms", "ms"},
	{"core.uncertain_ms", "ms"},
	{"core.recompute_ms", "ms"},
	{"core.ranges_ms", "ms"},
	{"core.snapshot_ms", "ms"},
	{"core.rows_processed", "count"},
	{"core.deterministic_folds", "count"},
	{"core.useful_fold_ratio", "ratio"},
	{"core.uncertain_max", "count"},
	{"core.uncertain_row_batches", "count"},
	{"core.recomputes", "count"},
	{"eps_batch", "count"},
	{"core.unattributed_frac", "ratio"},
	{"exec.run_ms", "ms"},
	{"exec.rows_per_s", "1/s"},
	{"colstore.encode_ms", "ms"},
	{"colstore.encode_rows_per_s", "1/s"},
	{"colstore.bytes_per_row", "B"},
	{"workload.generate_ms", "ms"},
	{"storage.shuffle_ms", "ms"},
	{"bootstrap.poisson_ns_per_weight", "ns"},
	{"bootstrap.ci_ns_per_call", "ns"},
	{"trace_overhead_frac", "ratio"},
}

// exactCounts are the per-layer metrics that the engine counts rather than
// times; under a fixed seed they repeat bit for bit, and they are read from
// the first traced op of the first table, whose inputs do not depend on how
// many ops fit in the run.
var exactCounts = map[string]bool{
	"core.rows_processed": true, "core.deterministic_folds": true, "core.useful_fold_ratio": true,
	"core.uncertain_max": true, "core.uncertain_row_batches": true, "core.recomputes": true,
	"eps_batch": true,
}

// hostStamp identifies where a result was measured; results from different
// hosts are not compared.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// sameHost ignores the commit: comparing two commits is the point.
func (h hostStamp) sameHost(o hostStamp) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

func stampHost() hostStamp {
	h := hostStamp{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// run.sh exports the commit; a checkout without git history has none.
	if c := os.Getenv("FLUODB_BENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	return h
}

// inputStamp identifies one generated table.
type inputStamp struct {
	Table    string `json:"table"`
	Rows     int    `json:"rows"`
	Checksum string `json:"checksum"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, as written by -out and read by
// -compare.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Scale     string                 `json:"scale"`
	Host      hostStamp              `json:"host"`
	Inputs    []inputStamp           `json:"inputs"`
	Attempted int                    `json:"attempted_ops"`
	Failed    int                    `json:"failed_ops"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Dists     map[string]dist        `json:"dists"`
	// Samples are the per-op values behind Dists, in the order measured.
	Samples samples `json:"samples"`
	// Info holds what is printed but not gated: ratios of two noisy medians.
	Info map[string]float64 `json:"info,omitempty"`
}

// summarize reduces a run's samples to the metrics of its pass: medians of
// the per-op samples (the mean for time_to_eps_ms), and the exact counts of
// the first traced op.
func summarize(w *workload, cfg config, m *measured) *result {
	scale := "full"
	if cfg.tiny {
		scale = "tiny"
	}
	r := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: scale,
		Host: stampHost(), Inputs: m.inputs,
		Attempted: m.attempted, Failed: len(m.failures), Failures: m.failures,
		Metrics: map[string]metricValue{}, Dists: map[string]dist{}, Samples: m.s,
	}
	rows := float64(m.inputs[0].Rows)
	med := func(name string) float64 { return median(m.s[name]) }
	center := func(name string) float64 {
		if name == "time_to_eps_ms" {
			// The batch that reaches eps is a small integer with a bootstrap's
			// noise on it (7 to 13 across the ops of one sbi_fullboot run). A
			// median of such values moves in steps of half a batch, 5% of the
			// metric; the mean over the run's ops halves the spread between
			// seeds (README.md).
			return bootstrap.Mean(m.s[name])
		}
		return med(name)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		m.counts["exec.rows_per_s"] = rows / (med("exec.run_ms") / 1e3)
		m.counts["colstore.encode_rows_per_s"] = rows / (med("colstore.encode_ms") / 1e3)
		m.counts["trace_overhead_frac"] = med("traced_total_online_ms")/med("total_online_ms") - 1
	} else {
		r.Info = map[string]float64{
			"first_answer_frac": med("first_answer_ms") / med("batch_ms"),
			"overhead_frac":     med("total_online_ms")/med("batch_ms") - 1,
			"online_rows_per_s": rows / (med("total_online_ms") / 1e3),
			"eps_batch":         med("eps_batch"),
		}
	}
	for _, d := range defs {
		v, exact := m.counts[d.name]
		if !exact {
			v = center(d.name)
			r.Dists[d.name] = summarizeDist(m.s[d.name])
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

// print writes the human-readable report of one run.
func (r *result) print(out io.Writer) {
	pass := "end-to-end (untraced)"
	if r.Trace {
		pass = "per-layer (traced: Options.Profile splits the fused weight+fold kernel into its two loops, so weights/fold come from the split loops)"
	}
	fmt.Fprintf(out, "## %s  seed=%d seconds=%g scale=%s  %s\n", r.Workload, r.Seed, r.Seconds, r.Scale, pass)
	h := r.Host
	fmt.Fprintf(out, "host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	for i, in := range r.Inputs {
		fmt.Fprintf(out, "input %d: table=%s rows=%d checksum=%s\n", i, in.Table, in.Rows, in.Checksum)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "%-34s %-6s %14s %14s %14s %14s %20s %5s\n", "metric", "unit", "value", "median", "q1", "q3", "tail", "n")
	for _, d := range defs {
		v := r.Metrics[d.name]
		ds, ok := r.Dists[d.name]
		if !ok {
			kind := "derived"
			if exactCounts[d.name] {
				kind = "exact"
			}
			fmt.Fprintf(out, "%-34s %-6s %14.6g %14s %14s %14s %20s %s\n", d.name, v.Unit, v.Value, "-", "-", "-", "-", kind)
			continue
		}
		tail := "-"
		if ds.TailPct > 0 {
			tail = fmt.Sprintf("p%.0f=%.6g", ds.TailPct, ds.Tail)
		}
		fmt.Fprintf(out, "%-34s %-6s %14.6g %14.6g %14.6g %14.6g %20s %5d\n", d.name, v.Unit, v.Value, ds.Median, ds.Q1, ds.Q3, tail, ds.N)
	}
	if r.Info != nil {
		fmt.Fprintf(out, "not gated: first_answer_frac=%.4f (first_answer_ms/batch_ms) overhead_frac=%+.4f (total_online_ms/batch_ms-1) online_rows_per_s=%.0f eps_batch=%g\n",
			r.Info["first_answer_frac"], r.Info["overhead_frac"], r.Info["online_rows_per_s"], r.Info["eps_batch"])
	}
	fmt.Fprintf(out, "failed_ops %d of attempted_ops %d\n", r.Failed, r.Attempted)
	for i, f := range r.Failures {
		if i == 5 {
			fmt.Fprintf(out, "  ... %d more\n", len(r.Failures)-i)
			break
		}
		fmt.Fprintf(out, "  failure: %s\n", f)
	}
}

// contractLine is the driver's result object, printed last.
func (r *result) contractLine() string {
	data, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(data)
}

// spec is BENCHMARK.json, the one place the bounds live.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory (the root of the
// checkout, where the driver and run.sh start the benchmark) or its parent
// (where go test runs).
func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// compare prints, per workload and end-to-end metric, how much worse b's
// median is than a's against the metric's bound, and whether the exact
// counts of the traced pass repeat. It reports whether everything held.
func compare(out io.Writer, sp *spec, a, b []*result) (bool, error) {
	key := func(r *result) string { return fmt.Sprintf("%s/trace=%v", r.Workload, r.Trace) }
	other := map[string]*result{}
	for _, r := range b {
		other[key(r)] = r
	}
	ok := true
	fmt.Fprintf(out, "%-18s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "")
	for _, ra := range a {
		rb := other[key(ra)]
		if rb == nil {
			continue
		}
		if !ra.Host.sameHost(rb.Host) {
			return false, fmt.Errorf("%s: host stamps differ (%+v vs %+v): results from different hosts are not compared", ra.Workload, ra.Host, rb.Host)
		}
		if ra.Scale != rb.Scale || ra.Seed != rb.Seed || !slices.Equal(ra.Inputs, rb.Inputs) {
			return false, fmt.Errorf("%s: scale, seed or input checksums differ: the two results did not measure the same inputs", ra.Workload)
		}
		if ra.Failed+rb.Failed > 0 {
			ok = false
			fmt.Fprintf(out, "%-18s failed_ops %d and %d\n", ra.Workload, ra.Failed, rb.Failed)
		}
		if ra.Trace {
			for name := range exactCounts {
				if va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value; va != vb {
					ok = false
					fmt.Fprintf(out, "%-18s %-26s %14.6g %14.6g  exact count does not repeat\n", ra.Workload, name, va, vb)
				}
			}
			continue
		}
		for _, sm := range sp.EndToEnd {
			va, vb := ra.Metrics[sm.Name].Value, rb.Metrics[sm.Name].Value
			worse := (vb - va) / va
			if sm.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > sm.Bound {
				verdict, ok = "REGRESSED", false
			}
			fmt.Fprintf(out, "%-18s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", ra.Workload, sm.Name, va, vb, 100*worse, 100*sm.Bound, verdict)
		}
	}
	return ok, nil
}
