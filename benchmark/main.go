// Command benchmark measures FluoDB end to end — SQL text to first answer,
// to a target error, to the exact answer, against the batch executor on the
// same data — and attributes the time to layers in a separate traced pass.
// README.md defines the metrics and workloads; BENCHMARK.json at the root
// of the repository holds their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all (each workload, untraced then traced)")
		seed      = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", 0, "seconds of measurement per run (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "with one workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		scale     = flag.String("scale", "full", "table sizes: full or tiny")
		outPath   = flag.String("out", "", "also write the results as JSON to this file")
		tracePath = flag.String("trace-out", "", "write the spans of a traced pass as Chrome trace JSON to this file")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice, in opposite orders, and hold the two sets against the bounds")
		compareA  = flag.String("compare", "", "first -out file of a comparison")
		compareB  = flag.String("against", "", "second -out file of a comparison")
	)
	flag.Parse()
	// One analyst waits for each answer; two procs let Parallelism 2 and the
	// collector run beside the query without the host's core count entering
	// the numbers.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	sp, err := loadSpec()
	if err != nil {
		fatal(2, err)
	}
	if *compareA != "" || *compareB != "" {
		a, err := readResults(*compareA)
		if err != nil {
			fatal(2, err)
		}
		b, err := readResults(*compareB)
		if err != nil {
			fatal(2, err)
		}
		ok, err := compare(os.Stdout, sp, a, b)
		if err != nil {
			fatal(2, err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *scale != "full" && *scale != "tiny" {
		fatal(2, fmt.Errorf("unknown -scale %q", *scale))
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	cfg := config{seed: *seed, seconds: *seconds, tables: datasetsPerRun, tiny: *scale == "tiny"}

	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(2, fmt.Errorf("unknown -workload %q", *name))
		}
		cfg.trace = *trace == 1
		r := run(w, cfg, *tracePath)
		write(*outPath, []*result{r})
		fmt.Println(r.contractLine())
		if r.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	if *tracePath != "" {
		fatal(2, fmt.Errorf("-trace-out needs one -workload and -trace 1"))
	}
	first := runAll(cfg, false)
	ok := failedOps(first) == 0
	if *selfcheck {
		second := runAll(cfg, true)
		fmt.Println("## selfcheck: second set against the first")
		held, err := compare(os.Stdout, sp, first, second)
		if err != nil {
			fatal(2, err)
		}
		ok = ok && held
	}
	write(*outPath, first)
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload once and prints its report.
func run(w *workload, cfg config, tracePath string) *result {
	m := measure(w, cfg)
	r := summarize(w, cfg, m)
	r.print(os.Stdout)
	if cfg.trace && tracePath != "" {
		if err := m.rec.writeChrome(tracePath); err != nil {
			fatal(2, err)
		}
	}
	return r
}

// runAll runs every workload, untraced then traced.
func runAll(cfg config, reversed bool) []*result {
	order := slices.Clone(workloads)
	if reversed {
		slices.Reverse(order)
	}
	var out []*result
	for i := range order {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			out = append(out, run(&order[i], cfg, ""))
		}
	}
	return out
}

func failedOps(rs []*result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func write(path string, rs []*result) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(rs, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fatal(2, err)
	}
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}
