package audit

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"fluodb/internal/bootstrap"
	"fluodb/internal/core"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/workload"
)

// AuditQueries is the default query set of the accuracy harness, chosen
// to cover the estimator's structurally distinct paths on the TPC-H-style
// and Conviva-style workloads:
//
//   - SPJA: a monotone grouped aggregation — the only shape the classic
//     OLA baseline supports, so it is also where G-OLA bootstrap CIs
//     and CLT CIs are compared head to head;
//   - Q11: grouped HAVING against an uncertain scalar-subquery
//     threshold (set-style deterministic decisions per group);
//   - Q17: the correlated per-group AVG threshold (the recomputing
//     nested workload — range commits, failures, replays);
//   - SBI: a scalar AVG filtered by an uncorrelated scalar AVG over the
//     same sessions table — one large group per block, the shape whose
//     replica lanes the fold draws from batch moments once it is large
//     (DESIGN.md §7).
func AuditQueries() []workload.Query {
	return []workload.Query{
		{
			Name: "SPJA", Dataset: "tpch",
			Description: "monotone grouped aggregation (CLT-comparable: keys then aggregates, no HAVING/ORDER/LIMIT)",
			SQL: `SELECT brand, COUNT(*) AS orders, SUM(quantity) AS qty, AVG(extendedprice) AS avg_price
FROM lineitem GROUP BY brand`,
		},
		mustSuiteQuery("Q11"),
		mustSuiteQuery("Q17"),
		mustSuiteQuery("SBI"),
	}
}

func mustSuiteQuery(name string) workload.Query {
	q, ok := workload.ByName(name)
	if !ok {
		panic("audit: unknown suite query " + name)
	}
	return q
}

// QueryRun is one audited online execution: the per-batch accuracy
// trajectory plus the run's consistency record.
type QueryRun struct {
	Query      string            `json:"query"`
	Seed       uint64            `json:"seed"`
	Trajectory []TrajectoryPoint `json:"trajectory"`
	// Flips counts in-flight contradictions of committed decisions
	// (recovered by replay); Violations are contradictions still
	// standing when the invariant audit ran — any entry is a bug.
	Flips      int              `json:"flips"`
	Recomputes int              `json:"recomputes"`
	Violations []core.Violation `json:"violations,omitempty"`
	// FinalMaxRelErr is the worst relative error at the last batch —
	// zero when the run-to-completion exactness guarantee holds.
	FinalMaxRelErr float64 `json:"final_max_rel_err"`
}

// RunQuery executes one query online with full auditing: ground truth
// up front, a trajectory point per mini-batch, the deterministic-set
// invariant audit after every batch and at completion.
func RunQuery(name, sql string, cat *storage.Catalog, opt core.Options) (*QueryRun, error) {
	q, err := plan.Compile(sql, cat)
	if err != nil {
		return nil, fmt.Errorf("audit: compile %s: %w", name, err)
	}
	oracle, err := NewOracle(q, cat)
	if err != nil {
		return nil, fmt.Errorf("audit: oracle %s: %w", name, err)
	}
	eng, err := core.New(q, cat, opt)
	if err != nil {
		return nil, fmt.Errorf("audit: engine %s: %w", name, err)
	}
	defer eng.Close()
	run := &QueryRun{Query: name, Seed: opt.Seed}
	for !eng.Done() {
		snap, err := eng.Step()
		if err != nil {
			return nil, fmt.Errorf("audit: step %s: %w", name, err)
		}
		run.Trajectory = append(run.Trajectory, oracle.Compare(snap))
		run.Violations = append(run.Violations, eng.AuditInvariants()...)
	}
	m := eng.Metrics()
	run.Flips = m.DetFlips
	run.Recomputes = m.Recomputes
	if n := len(run.Trajectory); n > 0 {
		run.FinalMaxRelErr = run.Trajectory[n-1].MaxRelErr
	}
	return run, nil
}

// Config parameterizes the replication harness.
type Config struct {
	// Rows/Parts/Batches/Trials shape each replication's workload and
	// engine (workload.TPCHCatalog scale and core.Options).
	Rows    int `json:"rows"`
	Parts   int `json:"parts"`
	Batches int `json:"batches"`
	Trials  int `json:"trials"`
	// Reps is the number of seeded replications; replication r draws an
	// independent world (data + engine randomness) from Mix64(Seed+r).
	Reps int    `json:"reps"`
	Seed uint64 `json:"seed"`
	// Parallelism is passed to the engine (1 keeps the artifact
	// byte-reproducible regardless of the host's core count).
	Parallelism int `json:"parallelism"`
	// SampleCap is the engine's BootstrapSampleCap. The audit measures
	// the estimator's intrinsic validity, so it defaults to -1
	// (replicas over every row): the production default's m-out-of-n
	// subsampling trades per-group coverage for speed, and that trade
	// is reported in EXPERIMENTS.md rather than baked into the gate.
	SampleCap int `json:"sample_cap"`
	// Queries filters the audit set by name (default: all of
	// AuditQueries).
	Queries []string `json:"queries,omitempty"`
}

// WithDefaults fills unset config fields with the small-workload
// defaults used by `flbench -experiment audit` and the check.sh gate.
func (c Config) WithDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 20000
	}
	if c.Parts <= 0 {
		c.Parts = 120
	}
	if c.Batches <= 0 {
		c.Batches = 10
	}
	if c.Trials <= 0 {
		c.Trials = 100
	}
	if c.Reps <= 0 {
		c.Reps = 20
	}
	if c.Seed == 0 {
		c.Seed = 20150531
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.SampleCap == 0 {
		c.SampleCap = -1 // pass an explicit positive cap to audit the subsampled regime
	}
	return c
}

// QuerySummary aggregates a query's audit across all replications.
type QuerySummary struct {
	Query string `json:"query"`
	// Coverage is the empirical fraction of audited 95% bootstrap
	// intervals containing ground truth, over all pre-completion batches
	// of all replications (final batches are excluded: their intervals
	// collapse onto the exact answer and would inflate the rate).
	Coverage   float64 `json:"coverage"`
	CICells    int     `json:"ci_cells"`
	Covered    int     `json:"covered"`
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxRelErr  float64 `json:"max_rel_err"`
	Flips      int     `json:"flips"`
	Violations int     `json:"violations"`
	Recomputes int     `json:"recomputes"`
}

// Result is the full accuracy-audit artifact (BENCH_accuracy.json).
type Result struct {
	Config Config   `json:"config"`
	Seeds  []uint64 `json:"seeds"`
	// GolaCoverage pools the per-query bootstrap-CI coverage; the
	// acceptance gate requires ≥ 0.90 against the nominal 0.95.
	GolaCoverage float64        `json:"gola_coverage"`
	Queries      []QuerySummary `json:"queries"`
	// CLTCoverage is the classic-OLA baseline's empirical CLT-interval
	// coverage on the SPJA query (the only shape it supports), over the
	// same replications — the head-to-head the paper's §5 implies.
	CLTCoverage float64 `json:"clt_coverage"`
	CLTCells    int     `json:"clt_cells"`
	// MeanUncertainPerBatch is the mean cached uncertain-set size per
	// batch index across all runs; DecayFromPeakMonotone reports whether
	// it decays monotonically once past its peak (the uncertain set
	// necessarily grows while classification warms up, then must drain).
	MeanUncertainPerBatch []float64   `json:"mean_uncertain_per_batch"`
	DecayFromPeakMonotone bool        `json:"uncertain_decay_monotone"`
	MeanRelErr            float64     `json:"mean_rel_err"`
	MaxRelErr             float64     `json:"max_rel_err"`
	Flips                 int         `json:"flips"`
	Violations            int         `json:"violations"`
	Runs                  []*QueryRun `json:"runs"`
}

// Run executes the replication harness: Reps independent worlds, each
// auditing every query in the set against its own ground truth.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	queries := AuditQueries()
	if len(cfg.Queries) > 0 {
		var sel []workload.Query
		for _, name := range cfg.Queries {
			found := false
			for _, q := range queries {
				if q.Name == name {
					sel = append(sel, q)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("audit: unknown audit query %q (have SPJA, Q11, Q17, SBI)", name)
			}
		}
		queries = sel
	}

	res := &Result{Config: cfg}
	sums := make(map[string]*QuerySummary)
	for _, q := range queries {
		qs := &QuerySummary{Query: q.Name}
		sums[q.Name] = qs
		res.Queries = append(res.Queries, QuerySummary{}) // placeholder, filled below
	}
	var meanErrSum float64
	var meanErrN int
	uncertainSum := make([]float64, cfg.Batches)
	uncertainN := make([]int, cfg.Batches)

	for r := 0; r < cfg.Reps; r++ {
		seed := bootstrap.Mix64(cfg.Seed + uint64(r))
		if seed == 0 {
			seed = 1 // core treats 0 as "use default"; keep worlds distinct
		}
		res.Seeds = append(res.Seeds, seed)
		cat := workload.TPCHCatalog(cfg.Rows, cfg.Parts, seed)
		var conviva *storage.Catalog // built on first use, same world seed
		opt := core.Options{Batches: cfg.Batches, Trials: cfg.Trials,
			Seed: seed, Parallelism: cfg.Parallelism,
			BootstrapSampleCap: cfg.SampleCap}
		for _, q := range queries {
			qcat := cat
			if q.Dataset == "conviva" {
				if conviva == nil {
					conviva = workload.ConvivaCatalog(cfg.Rows, seed)
				}
				qcat = conviva
			}
			run, err := RunQuery(q.Name, q.SQL, qcat, opt)
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, run)
			qs := sums[q.Name]
			qs.Flips += run.Flips
			qs.Violations += len(run.Violations)
			qs.Recomputes += run.Recomputes
			for _, tp := range run.Trajectory {
				if tp.Batch-1 < len(uncertainSum) {
					uncertainSum[tp.Batch-1] += float64(tp.Uncertain)
					uncertainN[tp.Batch-1]++
				}
				if tp.Fraction >= 1 {
					continue // exact end state: intervals collapse onto truth
				}
				qs.CICells += tp.CICells
				qs.Covered += tp.Covered
				meanErrSum += tp.MeanRelErr
				meanErrN++
				qs.MeanRelErr += tp.MeanRelErr
				if tp.MaxRelErr > qs.MaxRelErr {
					qs.MaxRelErr = tp.MaxRelErr
				}
			}
		}
		// CLT coverage for the baseline, same world.
		for _, q := range queries {
			if q.Name != "SPJA" {
				continue
			}
			cells, covered, err := cltCoverage(q.SQL, cat, cfg.Batches)
			if err != nil {
				return nil, err
			}
			res.CLTCells += cells
			res.CLTCoverage += float64(covered) // normalized below
		}
	}

	var allCells, allCovered int
	for i, q := range queries {
		qs := sums[q.Name]
		n := 0
		for _, run := range res.Runs {
			if run.Query == q.Name {
				for _, tp := range run.Trajectory {
					if tp.Fraction < 1 {
						n++
					}
				}
			}
		}
		if n > 0 {
			qs.MeanRelErr /= float64(n)
		}
		if qs.CICells > 0 {
			qs.Coverage = float64(qs.Covered) / float64(qs.CICells)
		}
		allCells += qs.CICells
		allCovered += qs.Covered
		res.Flips += qs.Flips
		res.Violations += qs.Violations
		if qs.MaxRelErr > res.MaxRelErr {
			res.MaxRelErr = qs.MaxRelErr
		}
		res.Queries[i] = *qs
	}
	if allCells > 0 {
		res.GolaCoverage = float64(allCovered) / float64(allCells)
	}
	if res.CLTCells > 0 {
		res.CLTCoverage /= float64(res.CLTCells)
	} else {
		res.CLTCoverage = 0
	}
	if meanErrN > 0 {
		res.MeanRelErr = meanErrSum / float64(meanErrN)
	}
	for i := range uncertainSum {
		if uncertainN[i] > 0 {
			uncertainSum[i] /= float64(uncertainN[i])
		}
	}
	res.MeanUncertainPerBatch = uncertainSum
	res.DecayFromPeakMonotone = decaysFromPeak(uncertainSum)
	return res, nil
}

// decaysFromPeak reports whether the series is non-increasing from its
// maximum onward.
func decaysFromPeak(xs []float64) bool {
	peak := 0
	for i, x := range xs {
		if x > xs[peak] {
			peak = i
		}
	}
	for i := peak + 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			return false
		}
	}
	return true
}

// JSON renders the artifact deterministically (fixed field order,
// indented) — the determinism test asserts byte identity across runs.
func (r *Result) JSON() ([]byte, error) {
	for _, run := range r.Runs {
		for _, tp := range run.Trajectory {
			for _, f := range []float64{tp.MeanRelErr, tp.MaxRelErr, tp.MeanCIWidth} {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return nil, fmt.Errorf("audit: non-finite stat in %s batch %d", run.Query, tp.Batch)
				}
			}
		}
	}
	return json.MarshalIndent(r, "", "  ")
}

// FormatResult renders the audit artifact as the flbench text table.
func FormatResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Audit: statistical correctness over %d replications (rows=%d, k=%d, B=%d, seed=%d)\n",
		r.Config.Reps, r.Config.Rows, r.Config.Batches, r.Config.Trials, r.Config.Seed)
	fmt.Fprintf(&b, "%6s %10s %10s %14s %13s %8s %12s %12s\n",
		"query", "coverage", "ci cells", "mean rel err", "max rel err", "flips", "recomputes", "violations")
	for _, qs := range r.Queries {
		fmt.Fprintf(&b, "%6s %10.3f %10d %14.4f %13.4f %8d %12d %12d\n",
			qs.Query, qs.Coverage, qs.CICells, qs.MeanRelErr, qs.MaxRelErr,
			qs.Flips, qs.Recomputes, qs.Violations)
	}
	fmt.Fprintf(&b, "G-OLA bootstrap CI coverage: %.3f (nominal 0.95)\n", r.GolaCoverage)
	if r.CLTCells > 0 {
		fmt.Fprintf(&b, "OLA baseline CLT coverage:   %.3f over %d cells (SPJA only)\n",
			r.CLTCoverage, r.CLTCells)
	}
	fmt.Fprintf(&b, "invariant violations: %d\n", r.Violations)
	fmt.Fprintf(&b, "mean uncertain set per batch:")
	for _, u := range r.MeanUncertainPerBatch {
		fmt.Fprintf(&b, " %.1f", u)
	}
	fmt.Fprintf(&b, "\nuncertain decay monotone from peak: %v\n", r.DecayFromPeakMonotone)
	return b.String()
}
