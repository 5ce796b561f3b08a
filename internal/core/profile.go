package core

import (
	"fmt"
	"strings"
	"time"
)

// The per-phase profiler answers the question the fold throughput work
// raised: where does batch time actually go? The paper attributes
// FluoDB's ~60% online overhead to error estimation (§5); the phases
// below split every mini-batch into the G-OLA stages so that claim is
// verifiable per block on our own engine.
//
// Phases are always collected, and never per row:
//
//   - Classify and fold are timed per columnar segment sweep inside the
//     kernels every run executes (colFeed): classify is the selection
//     plus caching of the uncertain run, fold is argument resolution
//     plus the fold kernel (colFoldRuns) with the weight derivation it
//     interleaves. The row loop times a whole part as
//     fold. That is two clock reads per 4096-row segment, so nothing
//     needs a gate and Options.Profile does not change the kernels.
//   - Uncertain re-evaluation, range maintenance, recompute replay and
//     snapshot emission are timed at their call edges, one clock read
//     per edge shared with the edge's span (phaseBegin/phaseEnd).
//
// Accumulators are plain int64 arrays owned by exactly one goroutine:
// each parallel worker carries its own phaseAcc in its stage and
// the runner merges them at the batch boundary, so the steady-state
// fold stays at 0 allocs/tuple (pinned by TestFoldSteadyStateAllocs).

// Phase indices. Keep PhaseNames aligned.
const (
	phaseFold = iota
	phaseClassify
	phaseUncertain
	phaseRanges
	phaseRecompute
	phaseSnapshot
	numPhases
)

// PhaseNames lists the profiler phases in breakdown order, aligned with
// PhaseTimes.Durations.
var PhaseNames = []string{
	"fold", "classify", "uncertain", "ranges", "recompute", "snapshot",
}

// phaseAcc accumulates per-phase nanoseconds. An accumulator is owned
// by exactly one goroutine at a time; cross-goroutine visibility comes
// from the existing batch-boundary synchronization (WaitGroup), never
// from atomics on the hot path.
type phaseAcc struct{ ns [numPhases]int64 }

func (a *phaseAcc) merge(o *phaseAcc) {
	for i := range o.ns {
		a.ns[i] += o.ns[i]
	}
}

func (a *phaseAcc) reset() { *a = phaseAcc{} }

func (a *phaseAcc) times() PhaseTimes {
	return PhaseTimes{
		Fold:      time.Duration(a.ns[phaseFold]),
		Classify:  time.Duration(a.ns[phaseClassify]),
		Uncertain: time.Duration(a.ns[phaseUncertain]),
		Ranges:    time.Duration(a.ns[phaseRanges]),
		Recompute: time.Duration(a.ns[phaseRecompute]),
		Snapshot:  time.Duration(a.ns[phaseSnapshot]),
	}
}

// PhaseTimes is a per-phase wall-time breakdown of G-OLA execution.
//
//   - Fold: folds into main + replica aggregate state, including the
//     bootstrap weight derivation and dimension joins they interleave
//   - Classify: certain-filter evaluation, tri-state classification and
//     caching of uncertain tuples (columnar path; the row path counts
//     its whole loop as Fold)
//   - Uncertain: re-evaluation of the cached uncertain set (§3.2 delta
//     maintenance)
//   - Ranges: parameter estimate/replica/variation-range maintenance
//     after each block consumes a batch (the error-estimation cost §5
//     attributes the online overhead to)
//   - Recompute: failure-recovery replay (overlaps the other phases,
//     which re-accrue during replay — see BatchWork)
//   - Snapshot: snapshot materialization with bootstrap CIs (runs after
//     the batch duration is measured)
//   - Join, Weights: always zero. Joins and weight derivation run
//     inside the fold kernels and are timed as Fold; the fields remain
//     for readers that still name them.
//
// Under parallel folding Fold and Classify sum worker time, so a
// batch's breakdown may legitimately exceed its wall duration; with
// Parallelism 1 it is a wall-time decomposition.
type PhaseTimes struct {
	Join      time.Duration
	Fold      time.Duration
	Weights   time.Duration
	Classify  time.Duration
	Uncertain time.Duration
	Ranges    time.Duration
	Recompute time.Duration
	Snapshot  time.Duration
}

// Durations returns the phases in PhaseNames order.
func (p PhaseTimes) Durations() []time.Duration {
	return []time.Duration{
		p.Fold, p.Classify, p.Uncertain, p.Ranges, p.Recompute, p.Snapshot,
	}
}

// BatchWork is the disjoint in-batch processing time: every phase
// except Recompute (whose replay re-accrues the others, so including it
// would double-count) and Snapshot (measured after the batch duration).
// With serial folding, BatchWork ≤ the batch duration.
func (p PhaseTimes) BatchWork() time.Duration {
	return p.Fold + p.Classify + p.Uncertain + p.Ranges
}

// Milliseconds returns the non-zero phases as name → milliseconds, the
// wire/JSON form shared by the dashboard and flbench.
func (p PhaseTimes) Milliseconds() map[string]float64 {
	out := map[string]float64{}
	for i, d := range p.Durations() {
		if d > 0 {
			out[PhaseNames[i]] = float64(d.Microseconds()) / 1000
		}
	}
	return out
}

// String renders the non-zero phases compactly ("fold 1.2ms classify 3.4ms").
func (p PhaseTimes) String() string {
	var b strings.Builder
	for i, d := range p.Durations() {
		if d == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s %s", PhaseNames[i], fmtDur(d))
	}
	if b.Len() == 0 {
		return "(no phase time recorded)"
	}
	return b.String()
}

// fmtBytes renders a byte count in human units (profiles and flbench).
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// fmtDur renders a duration with ms precision appropriate for profiles.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
	}
}

// Report renders an EXPLAIN-ANALYZE-style text profile of the execution
// so far: run totals, the per-phase breakdown, each lineage block's
// cumulative per-phase cost, and the per-batch trajectory.
func (e *Engine) Report() string {
	m := e.Metrics()
	var b strings.Builder
	var total time.Duration
	for _, d := range m.BatchDurations {
		total += d
	}
	fmt.Fprintf(&b, "G-OLA profile: %d/%d batches, %d rows, %d recomputes, %d uncertain cached, %s processing\n",
		m.Batches, e.opt.Batches, m.RowsProcessed, m.Recomputes, e.UncertainRows(), fmtDur(total))
	fmt.Fprintf(&b, "phase totals: %s\n", m.Phases)
	if e.spans != nil {
		b.WriteString(e.timelineSummary())
	}
	if n := len(e.conv.series); n > 0 {
		p := e.conv.series[n-1]
		if p.HasCI {
			fmt.Fprintf(&b, "convergence: hw p50=%.4f p90=%.4f max=%.4f (relative), %.0f rows/s, churn +%d/-%d\n",
				p.HalfWidthP50, p.HalfWidthP90, p.HalfWidthMax, p.RowsPerSec, p.UncertainIn, p.UncertainOut)
			if e.lastSnap != nil {
				if eta, ok := e.lastSnap.ETA(0.01); ok {
					fmt.Fprintf(&b, "eta to 1%% error: %s\n", fmtDur(eta))
				}
			}
		}
	}
	if u := e.lastUsage; u.TotalBytes > 0 || u.PeakBytes > 0 {
		fmt.Fprintf(&b, "memory: %s resident (peak %s) — tables %s, uncertain %s, scratch %s, segcache %s",
			fmtBytes(u.TotalBytes), fmtBytes(u.PeakBytes), fmtBytes(u.GroupTableBytes),
			fmtBytes(u.UncertainBytes), fmtBytes(u.ColScratchBytes), fmtBytes(u.SegCacheBytes))
		if u.CheckpointBytes > 0 {
			fmt.Fprintf(&b, ", checkpoint %s", fmtBytes(u.CheckpointBytes))
		}
		b.WriteByte('\n')
		if m.GCCycles > 0 || u.HeapLiveBytes > 0 {
			fmt.Fprintf(&b, "gc: heap live %s goal %s, %d cycles, %s pause total\n",
				fmtBytes(u.HeapLiveBytes), fmtBytes(u.HeapGoalBytes),
				m.GCCycles, fmtDur(time.Duration(m.GCPauseNS)))
		}
		if m.GCCPUNS > 0 {
			var wall time.Duration
			for _, d := range m.BatchDurations {
				wall += d
			}
			fmt.Fprintf(&b, "gc cpu: %s, %.1f%% of the batches' %s wall time\n",
				fmtDur(time.Duration(m.GCCPUNS)), 100*float64(m.GCCPUNS)/float64(max(wall, 1)), fmtDur(wall))
		}
		if u.BudgetBytes > 0 {
			fmt.Fprintf(&b, "budget: %s soft limit, degrade rung %d", fmtBytes(u.BudgetBytes), u.DegradeRung)
			if r := degradeReasons[e.degradeRung]; r != "" {
				fmt.Fprintf(&b, " (%s)", r)
			}
			if m.UncertainEvictions > 0 {
				fmt.Fprintf(&b, ", %d budget evictions", m.UncertainEvictions)
			}
			b.WriteByte('\n')
		}
	}
	for _, bs := range m.Blocks {
		fmt.Fprintf(&b, "block %d [%s] table=%s groups=%d uncertain=%d plan=%s\n  %s\n",
			bs.ID, bs.Kind, bs.Table, bs.Groups, bs.Uncertain, joinNote(bs.Columnar, bs.Classifier), bs.Phases)
		if bs.Label != "" {
			fmt.Fprintf(&b, "  %s\n", strings.ReplaceAll(bs.Label, "\n", " "))
		}
	}
	if len(m.PhasePerBatch) > 0 {
		fmt.Fprintf(&b, "%5s %10s %10s %10s %10s %10s %10s %10s %10s\n",
			"batch", "dur",
			"fold", "classify", "uncertain", "ranges", "recompute", "snapshot", "unc.rows")
		for i, p := range m.PhasePerBatch {
			var dur time.Duration
			if i < len(m.BatchDurations) {
				dur = m.BatchDurations[i]
			}
			unc := 0
			if i < len(m.UncertainPerBatch) {
				unc = m.UncertainPerBatch[i]
			}
			fmt.Fprintf(&b, "%5d %10s %10s %10s %10s %10s %10s %10s %10d\n",
				i+1, fmtDur(dur),
				fmtDur(p.Fold), fmtDur(p.Classify),
				fmtDur(p.Uncertain), fmtDur(p.Ranges), fmtDur(p.Recompute), fmtDur(p.Snapshot), unc)
		}
	}
	return b.String()
}
