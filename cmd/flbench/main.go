// Command flbench regenerates the paper's evaluation figures and
// tables (see DESIGN.md §4 for the experiment index):
//
//	flbench -experiment fig3a   # Figure 3(a): RSD vs time, TPC-H Q17, with T1's headline metrics
//	flbench -experiment fig3b   # Figure 3(b): CDM/G-OLA per-batch ratio
//	flbench -experiment t2      # uncertain-set sizes (§3.2/§5 prose)
//	flbench -experiment audit   # statistical-correctness audit (BENCH_accuracy.json)
//	flbench -experiment chaos   # robustness soak: seeded fault schedules (-schedules N)
//	flbench -experiment all     # fig3a, fig3b and t2
//
// Scale with -rows, -batches, -trials; fix randomness with -seed.
// -format csv prints fig3a or fig3b as plot-ready series.
//
// Every experiment can write its structured result as a JSON artifact
// with -json out.json; audit defaults to writing BENCH_accuracy.json
// even without -json.
//
// -trace out.jsonl runs one suite query (default Q17, pick another with
// -tracequery) with Options.Profile on and dumps the engine's
// structured G-OLA events — range commits/failures, uncertain flips,
// recompute triggers — as JSON Lines, followed by the per-phase profile
// on stdout.
// -spans out.json additionally (or instead) records the run's span
// timeline — query → mini-batch → phase → worker task — and writes it as
// Chrome trace-event JSON, with the same events the JSONL holds attached
// as instants; open the file in ui.perfetto.dev or chrome://tracing. The
// summary reports the ring's drop count (the only event-drop figure)
// and the instants written, which equal the events captured.
//
// Throughput and latency of the engine are measured by the end-to-end
// benchmark under benchmark/ (BENCHMARK.json) and by the go test
// benchmarks of internal/core, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"fluodb/internal/audit"
	"fluodb/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig3a|fig3b|t2|audit|chaos|all (all = fig3a, fig3b and t2)")
		jsonOut    = flag.String("json", "", "write the experiment result as a JSON artifact (audit: defaults to BENCH_accuracy.json)")
		rows       = flag.Int("rows", 100000, "fact-table rows per dataset (audit default: 20000)")
		parts      = flag.Int("parts", 0, "distinct parts (default rows/150)")
		batches    = flag.Int("batches", 10, "mini-batches (k)")
		trials     = flag.Int("trials", 100, "bootstrap trials (B)")
		seed       = flag.String("seed", "", "RNG seed, any uint64 including an explicit 0 (default: fixed 20150531)")
		reps       = flag.Int("reps", 20, "audit only: seeded replications")
		schedules  = flag.Int("schedules", 1000, "chaos only: seeded fault schedules to run")
		format     = flag.String("format", "table", "table|csv (csv: plot-ready series for fig3a/fig3b)")
		traceOut   = flag.String("trace", "", "run one traced query and write G-OLA events to this JSONL file")
		traceQuery = flag.String("tracequery", "Q17", "suite query for -trace")
		spansOut   = flag.String("spans", "", "run one traced query and write its span timeline to this file as Chrome trace-event JSON (open in ui.perfetto.dev); combines with -trace")
	)
	flag.Parse()
	cfg := bench.Config{Rows: *rows, Parts: *parts, Batches: *batches, Trials: *trials}
	if *seed != "" {
		v, err := strconv.ParseUint(*seed, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flbench: -seed %q is not a uint64: %v\n", *seed, err)
			os.Exit(1)
		}
		cfg.Seed, cfg.SeedSet = v, true
	}
	rowsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rows" {
			rowsSet = true
		}
	})
	if *traceOut != "" || *spansOut != "" {
		if err := runTrace(cfg, *traceQuery, *traceOut, *spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "flbench:", err)
			os.Exit(1)
		}
		return
	}
	var err error
	switch {
	case *experiment == "audit":
		err = runAudit(cfg, rowsSet, *reps, *jsonOut)
	case *experiment == "chaos":
		err = runChaos(cfg, *schedules, *jsonOut)
	case *format == "csv":
		err = runCSV(*experiment, cfg)
	default:
		err = run(*experiment, cfg, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

// writeJSON marshals an experiment result as an indented JSON artifact.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runAudit runs the statistical-correctness harness and writes the
// BENCH_accuracy.json artifact.
func runAudit(cfg bench.Config, rowsSet bool, reps int, jsonOut string) error {
	acfg := audit.Config{
		Parts: cfg.Parts, Batches: cfg.Batches, Trials: cfg.Trials,
		Reps: reps, Parallelism: 1,
	}
	if rowsSet {
		acfg.Rows = cfg.Rows // otherwise audit's smaller 20000-row default
	}
	if cfg.SeedSet {
		acfg.Seed = cfg.EngineSeed()
	}
	res, err := audit.Run(acfg)
	if err != nil {
		return err
	}
	fmt.Print(audit.FormatResult(res))
	if jsonOut == "" {
		jsonOut = "BENCH_accuracy.json"
	}
	b, err := res.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonOut)
	return nil
}

// runChaos runs the robustness soak: -schedules seeded fault schedules,
// each verified bit-identical against a fault-free reference (or
// honoring the deadline/checkpoint degraded contracts). Any violation
// exits non-zero with the offending schedule's index, which replays the
// exact faults.
func runChaos(cfg bench.Config, schedules int, jsonOut string) error {
	res, err := bench.ChaosSoak(cfg, schedules)
	if res != nil {
		fmt.Print(bench.FormatChaos(res))
	}
	if err != nil {
		return err
	}
	if jsonOut != "" {
		return writeJSON(jsonOut, res)
	}
	return nil
}

// runTrace captures one query's structured G-OLA event stream
// (-trace, JSONL) and/or its span timeline (-spans, Chrome trace JSON).
func runTrace(cfg bench.Config, query, path, spansPath string) error {
	var w io.Writer = io.Discard
	var f *os.File
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		w = f
	}
	var sw io.Writer
	var sf *os.File
	if spansPath != "" {
		var err error
		if sf, err = os.Create(spansPath); err != nil {
			if f != nil {
				f.Close()
			}
			return err
		}
		sw = sf
	}
	res, err := bench.TraceRun(cfg, query, w, sw)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if sf != nil {
		if cerr := sf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if path != "" {
		fmt.Printf("wrote %s\n", path)
	}
	if spansPath != "" {
		fmt.Printf("wrote %s\n", spansPath)
	}
	fmt.Print(bench.FormatTrace(res))
	return nil
}

// runCSV emits plot-ready series.
func runCSV(experiment string, cfg bench.Config) error {
	switch experiment {
	case "fig3a":
		r, err := bench.Figure3a(cfg)
		if err != nil {
			return err
		}
		fmt.Println("batch,elapsed_ms,rsd_pct,fraction_pct,uncertain,batch_engine_ms")
		for _, p := range r.Points {
			fmt.Printf("%d,%.3f,%.5f,%.2f,%d,%.3f\n",
				p.Batch, p.ElapsedMS, p.RSDPercent, p.FractionPct, p.Uncertain, r.BatchEngineMS)
		}
		return nil
	case "fig3b":
		series, err := bench.Figure3b(cfg)
		if err != nil {
			return err
		}
		fmt.Print("batch")
		for _, s := range series {
			fmt.Printf(",%s", s.Query)
		}
		fmt.Println()
		if len(series) == 0 {
			return nil
		}
		for i := range series[0].Ratio {
			fmt.Print(i + 1)
			for _, s := range series {
				fmt.Printf(",%.4f", s.Ratio[i])
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("-format csv supports fig3a and fig3b only")
	}
}

func run(experiment string, cfg bench.Config, jsonOut string) error {
	all := experiment == "all"
	did := false
	results := map[string]any{}
	if all || experiment == "fig3a" {
		did = true
		r, err := bench.Figure3a(cfg)
		if err != nil {
			return err
		}
		results["fig3a"] = r
		fmt.Print(bench.FormatFig3a(r))
		fmt.Println()
		fmt.Print(bench.AsciiChart(r, 72, 14))
		fmt.Println()
	}
	if all || experiment == "fig3b" {
		did = true
		s, err := bench.Figure3b(cfg)
		if err != nil {
			return err
		}
		results["fig3b"] = s
		fmt.Print(bench.FormatFig3b(s))
		fmt.Println()
	}
	if all || experiment == "t2" {
		did = true
		rows, err := bench.Table2(cfg)
		if err != nil {
			return err
		}
		results["t2"] = rows
		fmt.Print(bench.FormatT2(rows))
		fmt.Println()
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	if jsonOut != "" {
		var payload any = results
		if !all {
			payload = results[experiment]
		}
		return writeJSON(jsonOut, payload)
	}
	return nil
}
