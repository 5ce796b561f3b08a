package bench

import (
	"fmt"

	"fluodb/internal/core"
	"fluodb/internal/plan"
)

// Memory experiment (flbench -experiment mem): what the resource ledger
// says an online query pins, per pool and per worker count, plus a
// forced walk down the MaxMemoryBytes degradation ladder verified
// bit-identical against the unbudgeted run. This is the executable form
// of the ledger's contract — observability that never changes answers.

// MemPoint is one scenario's ledger observation.
type MemPoint struct {
	Scenario    string `json:"scenario"`
	Parallelism int    `json:"parallelism"`
	Rows        int    `json:"rows"`
	// PeakBytes is the query's high-water total residency; SteadyBytes
	// the residency after the final batch.
	PeakBytes   int64 `json:"peak_bytes"`
	SteadyBytes int64 `json:"steady_bytes"`
	// Final-batch pool split (the dominant pools).
	GroupTableBytes  int64 `json:"group_tables"`
	WeightArenaBytes int64 `json:"weight_arenas"`
	UncertainBytes   int64 `json:"uncertain"`
	SegCacheBytes    int64 `json:"segment_cache"`
	// GC telemetry accumulated across the run.
	GCCycles  int64 `json:"gc_cycles"`
	GCPauseNS int64 `json:"gc_pause_ns"`
}

// MemBudget is the degradation-ladder trajectory of a budgeted run.
type MemBudget struct {
	Scenario string `json:"scenario"`
	// UnbudgetedPeak is the reference run's peak; BudgetBytes the soft
	// limit that forced the ladder.
	UnbudgetedPeak int64 `json:"unbudgeted_peak"`
	BudgetBytes    int64 `json:"budget_bytes"`
	// RungPerBatch is the engaged rung after each batch (latched, so
	// non-decreasing); FinalRung its last value.
	RungPerBatch    []int `json:"rung_per_batch"`
	FinalRung       int   `json:"final_rung"`
	BudgetEvictions int64 `json:"budget_evictions"`
	// BitIdentical reports whether every budgeted snapshot's rows matched
	// the unbudgeted run exactly (must be true; rung 1 is a bit-identical
	// fallback and rung 2 evicts only on uncertain-heavy queries).
	BitIdentical bool   `json:"bit_identical"`
	Mismatch     string `json:"mismatch,omitempty"`
}

// memTopRung is the top rung of the MaxMemoryBytes ladder (1 = segment
// cache dropped, 2 = uncertain eviction).
const memTopRung = 2

// Check reports a budget walk that diverged from the unbudgeted run or
// ended below the ladder's top rung.
func (b *MemBudget) Check() error {
	if !b.BitIdentical {
		return fmt.Errorf("budget-degraded run diverged from unbudgeted reference: %s", b.Mismatch)
	}
	if b.FinalRung < memTopRung {
		return fmt.Errorf("budget walk (%d-byte budget) ended at rung %d, below the top rung %d",
			b.BudgetBytes, b.FinalRung, memTopRung)
	}
	return nil
}

// MemResult is the whole experiment.
type MemResult struct {
	Points []MemPoint `json:"points"`
	Budget *MemBudget `json:"budget,omitempty"`
}

// memRun drains one engine, collecting the ledger trajectory.
func memRun(sql string, cfg Config, parallelism int, budget int64) ([]*core.Snapshot, *core.Engine, error) {
	cat := foldBenchCatalog(cfg.Rows, cfg.EngineSeed())
	q, err := plan.Compile(sql, cat)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.New(q, cat, core.Options{
		Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.EngineSeed(),
		Parallelism: parallelism, ParallelThreshold: 512,
		MaxMemoryBytes: budget,
	})
	if err != nil {
		return nil, nil, err
	}
	var snaps []*core.Snapshot
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		snaps = append(snaps, s)
	}
	return snaps, eng, nil
}

// MemBench measures per-pool residency across scenarios and worker
// counts, then forces the full degradation ladder under a tiny budget
// and verifies the answers stayed bit-identical.
func MemBench(cfg Config) (*MemResult, error) {
	cfg = cfg.WithDefaults()
	scenarios := []struct {
		name string
		sql  string
	}{
		{"single-key", `SELECT a, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a`},
		{"multi-key", `SELECT a, b, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a, b`},
	}
	res := &MemResult{}
	for _, sc := range scenarios {
		for _, p := range []int{1, 4} {
			_, eng, err := memRun(sc.sql, cfg, p, 0)
			if err != nil {
				return nil, fmt.Errorf("bench mem %s/P=%d: %w", sc.name, p, err)
			}
			u := eng.Resources()
			m := eng.Metrics()
			eng.Close()
			res.Points = append(res.Points, MemPoint{
				Scenario: sc.name, Parallelism: p, Rows: cfg.Rows,
				PeakBytes: u.PeakBytes, SteadyBytes: u.TotalBytes,
				GroupTableBytes:  u.GroupTableBytes,
				WeightArenaBytes: u.WeightArenaBytes,
				UncertainBytes:   u.UncertainBytes,
				SegCacheBytes:    u.SegCacheBytes,
				GCCycles:         m.GCCycles, GCPauseNS: m.GCPauseNS,
			})
		}
	}

	// Budget trajectory: rerun the multi-key scenario under a budget far
	// below its unbudgeted peak, forcing every rung, and demand
	// bit-identical rows. 1 byte would also work; peak/16 exercises the
	// "re-collect between rungs" path more realistically.
	sc := scenarios[1]
	ref, refEng, err := memRun(sc.sql, cfg, 4, 0)
	if err != nil {
		return nil, err
	}
	peak := refEng.Resources().PeakBytes
	refEng.Close()
	budget := peak / 16
	if budget < 1 {
		budget = 1
	}
	got, gotEng, err := memRun(sc.sql, cfg, 4, budget)
	if err != nil {
		return nil, err
	}
	mb := &MemBudget{
		Scenario:       sc.name,
		UnbudgetedPeak: peak,
		BudgetBytes:    budget,
		FinalRung:      gotEng.Resources().DegradeRung,
	}
	mb.BudgetEvictions = gotEng.Metrics().BudgetEvictions
	gotEng.Close()
	for _, s := range got {
		mb.RungPerBatch = append(mb.RungPerBatch, s.Resources.DegradeRung)
	}
	if err := snapsEqual(ref, got); err != nil {
		mb.Mismatch = err.Error()
	} else {
		mb.BitIdentical = true
	}
	res.Budget = mb
	return res, nil
}

// FormatMem renders the experiment as aligned tables.
func FormatMem(r *MemResult) string {
	s := "Memory residency (resource ledger, final batch / peak)\n"
	s += fmt.Sprintf("%-12s %3s %10s %12s %12s %12s %12s %12s %10s\n",
		"scenario", "P", "rows", "peak", "steady", "tables", "arenas", "segcache", "gc cycles")
	for _, p := range r.Points {
		s += fmt.Sprintf("%-12s %3d %10d %12d %12d %12d %12d %12d %10d\n",
			p.Scenario, p.Parallelism, p.Rows, p.PeakBytes, p.SteadyBytes,
			p.GroupTableBytes, p.WeightArenaBytes, p.SegCacheBytes, p.GCCycles)
	}
	if b := r.Budget; b != nil {
		s += fmt.Sprintf("Budget ladder (%s): %d-byte budget vs %d-byte unbudgeted peak\n",
			b.Scenario, b.BudgetBytes, b.UnbudgetedPeak)
		s += fmt.Sprintf("  rung per batch: %v (final %d), budget evictions %d\n",
			b.RungPerBatch, b.FinalRung, b.BudgetEvictions)
		if b.BitIdentical {
			s += "  bit-identical to unbudgeted run: yes\n"
		} else {
			s += fmt.Sprintf("  bit-identical to unbudgeted run: NO — %s\n", b.Mismatch)
		}
	}
	return s
}
