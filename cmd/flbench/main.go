// Command flbench regenerates the paper's evaluation figures and
// tables (see DESIGN.md §4 for the experiment index):
//
//	flbench -experiment fig3a   # Figure 3(a): RSD vs time, TPC-H Q17
//	flbench -experiment fig3b   # Figure 3(b): CDM/G-OLA per-batch ratio
//	flbench -experiment t1      # headline latency metrics (§5 prose)
//	flbench -experiment t2      # uncertain-set sizes (§3.2/§5 prose)
//	flbench -experiment eps     # ablation: ε slack sweep
//	flbench -experiment boots   # ablation: bootstrap trial count sweep
//	flbench -experiment k       # ablation: mini-batch granularity sweep
//	flbench -experiment fold    # fold-path throughput (see BENCH_fold.json)
//	flbench -experiment scaling # parallel scaling: worker pool at P∈{1,2,4,8}
//	flbench -experiment audit   # statistical-correctness audit (BENCH_accuracy.json)
//	flbench -experiment chaos   # robustness soak: seeded fault schedules (-schedules N)
//	flbench -experiment mem     # resource-ledger residency + budget degradation ladder
//	flbench -experiment all     # everything
//
// Scale with -rows, -batches, -trials; fix randomness with -seed.
//
// Every experiment can write its structured result as a JSON artifact
// with -json out.json. Two experiments have artifact conventions: fold
// updates a BENCH_fold.json perf trajectory (demoting the previous
// "current" entry into "baselines"), and audit defaults to writing
// BENCH_accuracy.json even without -json.
//
// -trace out.jsonl runs one suite query (default Q17, pick another with
// -tracequery) with Options.Profile on and dumps the engine's
// structured G-OLA events — range commits/failures, uncertain flips,
// recompute triggers — as JSON Lines, followed by the per-phase profile
// on stdout.
// -spans out.json additionally (or instead) records the run's span
// timeline — query → mini-batch → phase → worker task, with ring events
// as instants — and writes it as Chrome trace-event JSON; open the file
// in ui.perfetto.dev or chrome://tracing.
//
// The fold experiment maintains the repo's perf trajectory: running it
// with -json BENCH_fold.json demotes the file's previous "current"
// measurement into "baselines" and installs the new one, so each PR
// appends one point to the history. The scaling experiment writes its
// worker sweep into the same file's "scaling" series.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"

	"fluodb/internal/audit"
	"fluodb/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig3a|fig3b|t1|t2|eps|boots|k|fold|scaling|audit|chaos|mem|all")
		logFmt     = flag.String("logfmt", "text", "structured-log output: text|json (stderr)")
		jsonOut    = flag.String("json", "", "write the experiment result as a JSON artifact (fold/scaling: updates a BENCH_fold.json trajectory; audit: defaults to BENCH_accuracy.json)")
		label      = flag.String("label", "", "fold/scaling only: label for the -json entry (e.g. a PR name)")
		rows       = flag.Int("rows", 100000, "fact-table rows per dataset (audit default: 20000)")
		parts      = flag.Int("parts", 0, "distinct parts (default rows/150)")
		batches    = flag.Int("batches", 10, "mini-batches (k)")
		trials     = flag.Int("trials", 100, "bootstrap trials (B)")
		seed       = flag.String("seed", "", "RNG seed, any uint64 including an explicit 0 (default: fixed 20150531)")
		reps       = flag.Int("reps", 20, "audit only: seeded replications")
		rowPath    = flag.Bool("rowpath", false, "fold only: force the legacy row-at-a-time fold path (A/B baseline for the columnar hot path)")
		schedules  = flag.Int("schedules", 1000, "chaos only: seeded fault schedules to run")
		format     = flag.String("format", "table", "table|csv (csv: plot-ready series for fig3a/fig3b)")
		traceOut   = flag.String("trace", "", "run one traced query and write G-OLA events to this JSONL file")
		traceQuery = flag.String("tracequery", "Q17", "suite query for -trace")
		spansOut   = flag.String("spans", "", "run one traced query and write its span timeline to this file as Chrome trace-event JSON (open in ui.perfetto.dev); combines with -trace")
	)
	flag.Parse()
	switch *logFmt {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fmt.Fprintf(os.Stderr, "flbench: -logfmt %q must be text or json\n", *logFmt)
		os.Exit(1)
	}
	cfg := bench.Config{
		Rows: *rows, Parts: *parts, Batches: *batches, Trials: *trials,
		RowPath: *rowPath,
	}
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
	case *experiment == "fold":
		err = runFold(cfg, *jsonOut, *label)
	case *experiment == "scaling":
		err = runScaling(cfg, *jsonOut, *label)
	case *experiment == "audit":
		err = runAudit(cfg, rowsSet, *reps, *jsonOut)
	case *experiment == "chaos":
		err = runChaos(cfg, *schedules, *jsonOut)
	case *experiment == "mem":
		err = runMem(cfg, *jsonOut)
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

// runMem measures resource-ledger residency and walks the memory-budget
// degradation ladder, verifying the budgeted run bit-identical.
func runMem(cfg bench.Config, jsonOut string) error {
	slog.Info("experiment started", "experiment", "mem",
		"rows", cfg.Rows, "batches", cfg.Batches, "trials", cfg.Trials)
	res, err := bench.MemBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatMem(res))
	if b := res.Budget; b != nil {
		slog.Info("budget ladder walked", "experiment", "mem",
			"budget_bytes", b.BudgetBytes, "final_rung", b.FinalRung,
			"bit_identical", b.BitIdentical)
		if err := b.Check(); err != nil {
			return err
		}
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

// runFold measures fold-path throughput and optionally updates the
// BENCH_fold.json perf trajectory (-json).
func runFold(cfg bench.Config, jsonOut, label string) error {
	points, err := bench.FoldBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFold(points))
	if jsonOut == "" {
		return nil
	}
	if label == "" {
		label = "unlabeled"
	}
	if err := bench.WriteFoldJSON(jsonOut, label, points); err != nil {
		return err
	}
	fmt.Printf("wrote %s (label %q)\n", jsonOut, label)
	return nil
}

// runScaling measures the worker sweep and optionally
// installs it as the BENCH_fold.json scaling series.
func runScaling(cfg bench.Config, jsonOut, label string) error {
	points, err := bench.ScalingBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatScaling(points))
	if jsonOut == "" {
		return nil
	}
	if err := bench.WriteScalingJSON(jsonOut, label, points); err != nil {
		return err
	}
	fmt.Printf("wrote %s scaling series\n", jsonOut)
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
	if all || experiment == "t1" {
		did = true
		r, err := bench.Table1(cfg)
		if err != nil {
			return err
		}
		results["t1"] = r
		fmt.Println("T1: headline metrics (Q17)")
		fmt.Printf("  first answer:        %.1f ms (%.1f%% of batch time)\n",
			r.Fig3a.FirstAnswerMS, r.Fig3a.FirstAnswerPct)
		fmt.Printf("  mean refresh cadence: %.1f ms\n", r.MeanRefreshMS)
		fmt.Printf("  total overhead:      %.0f%% vs batch engine\n", r.Fig3a.OverheadPct)
		if r.Fig3a.TimeTo2PctMS >= 0 {
			fmt.Printf("  stop at 2%% RSD:      %.1f ms (%.1fx faster than batch)\n",
				r.Fig3a.TimeTo2PctMS, r.Fig3a.SpeedupAt2PctRSD)
		}
		fmt.Printf("  final RSD:           %.3f%%\n", r.FinalRSDPct)
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
	if all || experiment == "eps" {
		did = true
		pts, err := bench.AblationEpsilon(cfg, nil)
		if err != nil {
			return err
		}
		results["eps"] = pts
		fmt.Println("A1: epsilon slack sweep (SBI + Q17)")
		fmt.Printf("%6s %10s %12s %14s %10s\n", "query", "eps (σ)", "recomputes", "max uncertain", "total ms")
		for _, p := range pts {
			fmt.Printf("%6s %10.2f %12d %14d %10.1f\n",
				p.Query, p.EpsilonSigma, p.Recomputes, p.MaxUncertain, p.TotalMS)
		}
		fmt.Println()
	}
	if all || experiment == "boots" {
		did = true
		pts, err := bench.AblationBootstrap(cfg, nil)
		if err != nil {
			return err
		}
		results["boots"] = pts
		fmt.Println("A2: bootstrap trial count sweep (SBI)")
		fmt.Printf("%8s %10s %14s %14s\n", "trials", "total ms", "first RSD %", "last RSD %")
		for _, p := range pts {
			fmt.Printf("%8d %10.1f %14.3f %14.3f\n", p.Trials, p.TotalMS, p.FirstRSDPct, p.LastRSDPct)
		}
		fmt.Println()
	}
	if all || experiment == "k" {
		did = true
		pts, err := bench.AblationBatches(cfg, nil)
		if err != nil {
			return err
		}
		results["k"] = pts
		fmt.Println("A3: mini-batch granularity sweep (Q17)")
		fmt.Printf("%8s %12s %16s %14s\n", "k", "total ms", "first answer ms", "refresh ms")
		for _, p := range pts {
			fmt.Printf("%8d %12.1f %16.1f %14.1f\n", p.Batches, p.TotalMS, p.FirstAnswerMS, p.MeanRefreshMS)
		}
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
