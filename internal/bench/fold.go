package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/core"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Fold-path benchmark: end-to-end mini-batch fold throughput through the
// public engine API. Unlike the figure experiments, these scenarios are
// built so that (after the first mini-batch) every tuple hits an
// existing group — the steady state the per-tuple fold cost is defined
// over. Parallelism is pinned to 1 so the numbers measure the serial
// fold loop, not the machine's core count.

// FoldPoint is one fold scenario's measurement (best of FoldReps runs).
// The phase breakdown and per-batch uncertain counts come from one
// extra run with the profiler enabled, outside the timed reps (phase
// timing adds clock reads to the hot loop), so the trajectory captures
// where time goes — estimation overhead vs fold work — not just wall
// time.
type FoldPoint struct {
	Scenario          string             `json:"scenario"`
	Rows              int                `json:"rows"`
	Batches           int                `json:"batches"`
	Trials            int                `json:"trials"`
	NsPerRow          float64            `json:"ns_per_row"`
	RowsPerSec        float64            `json:"rows_per_sec"`
	Recomputes        int                `json:"recomputes"`
	UncertainPerBatch []int              `json:"uncertain_per_batch,omitempty"`
	PhaseMS           map[string]float64 `json:"phase_ms,omitempty"`
}

// FoldBaseline is one historical entry of the perf trajectory.
type FoldBaseline struct {
	Label  string      `json:"label"`
	Points []FoldPoint `json:"points"`
}

// ScalingPoint is one parallel-scaling measurement: a fold scenario run
// at a fixed worker count. Runtime is always "pool" for new points; the
// committed BENCH_fold.json also holds "spawn" points, the record of
// the per-batch goroutine-spawn runtime the pool replaced.
type ScalingPoint struct {
	Scenario    string  `json:"scenario"`
	Parallelism int     `json:"parallelism"`
	Runtime     string  `json:"runtime"`
	Rows        int     `json:"rows"`
	NsPerRow    float64 `json:"ns_per_row"`
	RowsPerSec  float64 `json:"rows_per_sec"`
}

// FoldResult is the BENCH_fold.json document: the current measurement
// plus every previous "current" this file has carried, so successive
// PRs accumulate a perf trajectory. Scaling holds the parallel-scaling
// series (P sweep) of the current label.
type FoldResult struct {
	GeneratedBy string         `json:"generated_by"`
	GoVersion   string         `json:"go_version"`
	Label       string         `json:"label"`
	Current     []FoldPoint    `json:"current"`
	Scaling     []ScalingPoint `json:"scaling,omitempty"`
	Baselines   []FoldBaseline `json:"baselines,omitempty"`
}

// FoldReps is the number of repetitions per scenario (best run wins).
const FoldReps = 3

// foldBenchCatalog builds the fold-benchmark fact table: two
// low-cardinality key columns (a: 8 values, b: 16 values) and one
// measure, so group creation stops after the first few tuples.
func foldBenchCatalog(n int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("facts", types.NewSchema(
		"a", types.KindString,
		"b", types.KindInt,
		"x", types.KindFloat,
	))
	as := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	rng := bootstrap.NewRNG(seed)
	for i := 0; i < n; i++ {
		_ = t.Append(types.Row{
			types.NewString(as[rng.Intn(len(as))]),
			types.NewInt(int64(rng.Intn(16))),
			types.NewFloat(rng.Float64() * 100),
		})
	}
	cat.Put(t)
	return cat
}

// FoldBench measures fold throughput for single- and multi-column
// group-bys, each with the default bootstrap subsample (few tuples carry
// trial weights) and with an unbounded subsample (every tuple folds into
// all B replicas).
func FoldBench(cfg Config) ([]FoldPoint, error) {
	cfg = cfg.WithDefaults()
	const (
		sqlSingle = `SELECT a, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a`
		sqlMulti  = `SELECT a, b, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a, b`
		// filtered exercises the vectorized certain-WHERE kernel with a
		// dictionary string predicate alongside a numeric compare;
		// uncertain-where exercises the tri-state classification kernel
		// (nested-aggregate predicate, certain/uncertain run splitting).
		sqlFiltered  = `SELECT a, COUNT(x), SUM(x), AVG(x) FROM facts WHERE a != 'hh' AND x < 90.0 GROUP BY a`
		sqlUncertain = `SELECT a, COUNT(x), SUM(x) FROM facts WHERE x < (SELECT 1.2 * AVG(x) FROM facts) GROUP BY a`
	)
	scenarios := []struct {
		name      string
		sql       string
		sampleCap int
	}{
		{"single-key/sampled-few", sqlSingle, 0},
		{"single-key/sampled-all", sqlSingle, -1},
		{"multi-key/sampled-few", sqlMulti, 0},
		{"multi-key/sampled-all", sqlMulti, -1},
		{"filtered/sampled-all", sqlFiltered, -1},
		{"uncertain-where", sqlUncertain, 0},
	}
	cat := foldBenchCatalog(cfg.Rows, cfg.EngineSeed())
	var out []FoldPoint
	for _, sc := range scenarios {
		best := time.Duration(0)
		// Phases are collected on every run, so the best rep's metrics
		// carry the breakdown.
		var bestM core.Metrics
		for rep := 0; rep < FoldReps; rep++ {
			q, err := plan.Compile(sc.sql, cat)
			if err != nil {
				return nil, fmt.Errorf("bench fold %s: %w", sc.name, err)
			}
			eng, err := core.New(q, cat, core.Options{
				Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.EngineSeed(),
				BootstrapSampleCap: sc.sampleCap, Parallelism: 1,
				RowPath: cfg.RowPath,
			})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			_, err = eng.Run(nil)
			d := time.Since(t0)
			eng.Close()
			if err != nil {
				return nil, err
			}
			if best == 0 || d < best {
				best, bestM = d, eng.Metrics()
			}
		}
		ns := float64(best.Nanoseconds()) / float64(cfg.Rows)
		out = append(out, FoldPoint{
			Scenario: sc.name, Rows: cfg.Rows, Batches: cfg.Batches, Trials: cfg.Trials,
			NsPerRow: ns, RowsPerSec: 1e9 / ns,
			Recomputes:        bestM.Recomputes,
			UncertainPerBatch: bestM.UncertainPerBatch,
			PhaseMS:           bestM.Phases.Milliseconds(),
		})
	}
	return out, nil
}

// ScalingBench sweeps the mini-batch runtime (persistent worker pool:
// cross-batch stage reuse + parallel reclassification + weights derived
// inside each worker's fold) across worker counts P∈{1,2,4,8} on the
// sampled-all scenarios (every tuple folds into all B replicas). ParallelThreshold
// is lowered to 512 so all worker counts engage on
// cfg.Rows/cfg.Batches-row batches.
func ScalingBench(cfg Config) ([]ScalingPoint, error) {
	cfg = cfg.WithDefaults()
	scenarios := []struct {
		name string
		sql  string
	}{
		{"single-key/sampled-all", `SELECT a, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a`},
		{"multi-key/sampled-all", `SELECT a, b, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a, b`},
	}
	cat := foldBenchCatalog(cfg.Rows, cfg.EngineSeed())
	var out []ScalingPoint
	for _, sc := range scenarios {
		for _, p := range []int{1, 2, 4, 8} {
			best := time.Duration(0)
			for rep := 0; rep < FoldReps; rep++ {
				q, err := plan.Compile(sc.sql, cat)
				if err != nil {
					return nil, fmt.Errorf("bench scaling %s: %w", sc.name, err)
				}
				eng, err := core.New(q, cat, core.Options{
					Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.EngineSeed(),
					BootstrapSampleCap: -1,
					Parallelism:        p, ParallelThreshold: 512,
				})
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				_, err = eng.Run(nil)
				d := time.Since(t0)
				eng.Close()
				if err != nil {
					return nil, err
				}
				if best == 0 || d < best {
					best = d
				}
			}
			ns := float64(best.Nanoseconds()) / float64(cfg.Rows)
			out = append(out, ScalingPoint{
				Scenario: sc.name, Parallelism: p, Runtime: "pool",
				Rows: cfg.Rows, NsPerRow: ns, RowsPerSec: 1e9 / ns,
			})
		}
	}
	return out, nil
}

// WriteFoldJSON writes (or updates) a BENCH_fold.json trajectory file:
// if path already holds a result, its "current" entry is demoted into
// "baselines" before the new measurement is installed. An existing
// scaling series carries over only when the label is unchanged (a new
// label's scaling numbers must be re-measured under that label).
func WriteFoldJSON(path, label string, points []FoldPoint) error {
	res := FoldResult{
		GeneratedBy: "cmd/flbench -experiment fold",
		GoVersion:   runtime.Version(),
		Label:       label,
		Current:     points,
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old FoldResult
		if err := json.Unmarshal(prev, &old); err == nil && len(old.Current) > 0 {
			res.Baselines = append(old.Baselines, FoldBaseline{Label: old.Label, Points: old.Current})
			if old.Label == label {
				res.Scaling = old.Scaling
			}
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteScalingJSON installs a parallel-scaling series into an existing
// (or fresh) BENCH_fold.json, leaving the current points and baseline
// trajectory untouched.
func WriteScalingJSON(path, label string, points []ScalingPoint) error {
	res := FoldResult{
		GeneratedBy: "cmd/flbench -experiment fold",
		GoVersion:   runtime.Version(),
		Label:       label,
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old FoldResult
		if err := json.Unmarshal(prev, &old); err == nil {
			res.Current = old.Current
			res.Baselines = old.Baselines
			if label == "" {
				res.Label = old.Label
			}
		}
	}
	res.Scaling = points
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatFold renders fold points as an aligned table, with each
// scenario's phase breakdown (from the best rep) alongside the
// throughput numbers.
func FormatFold(points []FoldPoint) string {
	s := "Fold-path throughput (Parallelism=1, steady-state group-by)\n"
	s += fmt.Sprintf("%-26s %10s %12s %14s  %s\n", "scenario", "rows", "ns/row", "rows/sec", "phase breakdown (ms)")
	for _, p := range points {
		s += fmt.Sprintf("%-26s %10d %12.1f %14.0f  %s\n",
			p.Scenario, p.Rows, p.NsPerRow, p.RowsPerSec, formatPhaseMS(p.PhaseMS))
	}
	return s
}

// FormatScaling renders the parallel-scaling series as an aligned
// table.
func FormatScaling(points []ScalingPoint) string {
	s := "Parallel scaling (sampled-all, ParallelThreshold=512, best of reps)\n"
	s += fmt.Sprintf("%-26s %4s %10s %12s %14s\n",
		"scenario", "P", "runtime", "ns/row", "rows/sec")
	for _, p := range points {
		s += fmt.Sprintf("%-26s %4d %10s %12.1f %14.0f\n",
			p.Scenario, p.Parallelism, p.Runtime, p.NsPerRow, p.RowsPerSec)
	}
	return s
}

// formatPhaseMS renders a phase_ms map in the profiler's canonical
// phase order.
func formatPhaseMS(phases map[string]float64) string {
	if len(phases) == 0 {
		return "-"
	}
	s := ""
	for _, name := range core.PhaseNames {
		v, ok := phases[name]
		if !ok {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%.1f", name, v)
	}
	return s
}
