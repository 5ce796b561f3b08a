package bench

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/chaos"
	"fluodb/internal/core"
	"fluodb/internal/otrace"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/testutil"
	"fluodb/internal/types"
)

// The chaos soak: thousands of deterministically seeded fault schedules
// thrown at the online runtime, each run checked against a fault-free
// reference for bit-identical snapshots (or, for the deadline and
// checkpoint modes, for the documented degraded contract). A schedule
// is fully named by its index — re-running the soak with the same base
// seed replays the exact same faults at the exact same (batch, worker)
// sites, so any failure is reproducible in isolation.

// chaosProfile is one fault mix.
type chaosProfile struct {
	name string
	cfg  chaos.Config
}

// chaosProfiles are the fault mixes the soak rotates through.
var chaosProfiles = []chaosProfile{
	{name: "panic", cfg: chaos.Config{PanicProb: 0.3}},
	{name: "straggler", cfg: chaos.Config{StragglerProb: 0.5, StragglerDelay: 50 * time.Microsecond}},
	{name: "corrupt", cfg: chaos.Config{CorruptProb: 0.3}},
	// mixed also runs with the span-timeline tracer attached: the
	// observability layer must neither perturb bit-identity nor emit a
	// malformed trace while absorbing every fault kind at once.
	{name: "mixed", cfg: chaos.Config{PanicProb: 0.15, StragglerProb: 0.2, CorruptProb: 0.15,
		StragglerDelay: 50 * time.Microsecond}},
	// colstress targets the columnar hot path's fallback seams: panics
	// force worker containment and part redos, corrupt poisons a
	// worker's private stage that must be quarantined and refolded — all
	// while the reference ran on the row path, so any divergence between
	// the two fold implementations under faults is caught, not just
	// fault handling.
	{name: "colstress", cfg: chaos.Config{PanicProb: 0.2, CorruptProb: 0.1}},
	// segseal targets the incremental segment-seal seam: the columnar
	// segment cache is dropped between batches, forcing an incremental
	// re-encode plus kernel recompilation mid-query. The reference still
	// runs the row path, so the re-encoded segments must reproduce it bit
	// for bit.
	{name: "segseal", cfg: chaos.Config{SegSealDropProb: 0.5}},
}

// chaosModes are the run shapes: a plain run compared snapshot-for-
// snapshot; a deadline cancellation mid-prefix followed by a resume; a
// checkpoint/resume round-trip verified byte-identical.
var chaosModes = []string{"plain", "cancel", "checkpoint"}

// chaosQueries exercise both runtime shapes: a banked grouped aggregate
// (full-checkpoint path) and a nested-subquery query with a live
// uncertain cache (classification, reclassification, replay path).
var chaosQueries = []string{
	`SELECT a, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a`,
	`SELECT a, SUM(x), AVG(x) FROM facts
		WHERE x < (SELECT 0.8 * AVG(x) FROM facts) GROUP BY a`,
}

// ChaosResult summarizes a soak.
type ChaosResult struct {
	Schedules            int              `json:"schedules"`
	BitIdentical         int              `json:"bit_identical"` // schedules whose outputs matched the reference exactly
	FaultCounts          map[string]int64 `json:"fault_counts"`  // fired faults by kind
	ModeCounts           map[string]int   `json:"mode_counts"`
	Profiles             map[string]int   `json:"profiles"`
	CancelResumes        int              `json:"cancel_resumes"`
	CheckpointRoundTrips int              `json:"checkpoint_round_trips"`
	SpanRuns             int              `json:"span_runs"` // schedules run with span tracing, exports validated
	GoroutinesBefore     int              `json:"goroutines_before"`
	GoroutinesAfter      int              `json:"goroutines_after"`
	ElapsedMS            float64          `json:"elapsed_ms"`
}

// chaosPartRows is the soak's pool part size: 64-row parts put all four
// workers on every 1024-row mini-batch.
const chaosPartRows = 64

// chaosEnv is the fixed workload the soak runs every schedule against.
type chaosEnv struct {
	cat  *storage.Catalog
	qs   []*plan.Query
	refs [][]*core.Snapshot // fault-free reference snapshots per query
	opt  core.Options
}

// chaosCatalog builds the soak's fact table: two low-cardinality key
// columns (a: 8 values, b: 16 values) and one measure, so group
// creation stops after the first few tuples.
func chaosCatalog(n int, seed uint64) *storage.Catalog {
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

func chaosBase(cfg Config) (*chaosEnv, error) {
	cfg = cfg.WithDefaults()
	// Small fixture: the soak's power comes from schedule count, not data
	// volume. 4 batches × 4 workers gives 16+ injection sites per pass.
	rows := 4096
	env := &chaosEnv{
		cat: chaosCatalog(rows, cfg.EngineSeed()),
		opt: core.Options{
			Batches: 4, Trials: 16, Seed: cfg.EngineSeed(), Parallelism: 4,
		},
	}
	// References run fault-free on the legacy row-at-a-time fold path;
	// scheduled runs use the default (columnar) path. Every bit-identical
	// check in the soak is therefore also a cross-path equivalence check:
	// the vectorized classify/fold pipeline must agree with the row loop
	// exactly, under every fault mix.
	refOpt := core.WithSeams(env.opt, core.Seams{PartRows: chaosPartRows, RowPath: true})
	for _, sql := range chaosQueries {
		q, err := plan.Compile(sql, env.cat)
		if err != nil {
			return nil, err
		}
		env.qs = append(env.qs, q)
		ref, _, err := runAll(q, env.cat, refOpt)
		if err != nil {
			return nil, err
		}
		env.refs = append(env.refs, ref)
	}
	return env, nil
}

// runAll drains a fresh engine and returns every snapshot.
func runAll(q *plan.Query, cat *storage.Catalog, opt core.Options) ([]*core.Snapshot, *core.Engine, error) {
	eng, err := core.New(q, cat, opt)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	var snaps []*core.Snapshot
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			return nil, nil, err
		}
		snaps = append(snaps, s)
	}
	return snaps, eng, nil
}

// snapsEqual demands bit-identical result rows (values, CIs, RSDs).
func snapsEqual(a, b []*core.Snapshot) error {
	if len(a) != len(b) {
		return fmt.Errorf("snapshot count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Rows, b[i].Rows) {
			return fmt.Errorf("batch %d rows differ", a[i].Batch)
		}
	}
	return nil
}

// runSchedule executes one seeded schedule and verifies its contract.
func runSchedule(env *chaosEnv, i int, r *ChaosResult) error {
	mix := chaosProfiles[i%len(chaosProfiles)]
	mode := chaosModes[(i/len(chaosProfiles))%len(chaosModes)]
	qi := (i / (len(chaosProfiles) * len(chaosModes))) % len(env.qs)
	q, ref := env.qs[qi], env.refs[qi]

	ccfg := mix.cfg
	ccfg.Seed = uint64(i)*0x9E3779B97F4A7C15 + 1
	inj := chaos.New(ccfg)
	opt := core.WithSeams(env.opt, core.Seams{PartRows: chaosPartRows, Chaos: inj})
	// The mixed profile also records span timelines: every engine the
	// schedule builds adds its own to timelines.
	opt.Profile = mix.name == "mixed"
	var timelines []*core.Engine

	r.ModeCounts[mode]++
	r.Profiles[mix.name]++
	defer func() {
		counts := inj.Counts()
		for _, k := range chaos.Kinds() {
			r.FaultCounts[k.String()] += counts[k]
		}
	}()

	switch mode {
	case "plain":
		got, eng, err := runAll(q, env.cat, opt)
		timelines = append(timelines, eng)
		if err != nil {
			return fmt.Errorf("schedule %d (%s/%s): %w", i, mix.name, mode, err)
		}
		if err := snapsEqual(ref, got); err != nil {
			return fmt.Errorf("schedule %d (%s/%s): %w", i, mix.name, mode, err)
		}
		r.BitIdentical++

	case "cancel":
		eng, err := core.New(q, env.cat, opt)
		if err != nil {
			return err
		}
		defer eng.Close()
		timelines = append(timelines, eng)
		stop := i % (env.opt.Batches + 1) // cancel after 0..Batches batches
		var got []*core.Snapshot
		for b := 0; b < stop; b++ {
			s, err := eng.Step()
			if err != nil {
				return fmt.Errorf("schedule %d (%s/%s) step %d: %w", i, mix.name, mode, b, err)
			}
			got = append(got, s)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		bounded, err := eng.StepContext(ctx)
		if !eng.Done() {
			if !core.IsInterrupted(err) {
				return fmt.Errorf("schedule %d (%s/%s): cancelled step returned %v", i, mix.name, mode, err)
			}
			if bounded == nil || !bounded.Interrupted {
				return fmt.Errorf("schedule %d (%s/%s): bounded answer not marked Interrupted", i, mix.name, mode)
			}
			if stop > 0 && !reflect.DeepEqual(bounded.Rows, got[stop-1].Rows) {
				return fmt.Errorf("schedule %d (%s/%s): bounded answer != last committed snapshot", i, mix.name, mode)
			}
		}
		// Resume to completion; the whole stream must match the reference.
		for !eng.Done() {
			s, err := eng.Step()
			if err != nil {
				return fmt.Errorf("schedule %d (%s/%s) resume: %w", i, mix.name, mode, err)
			}
			got = append(got, s)
		}
		if err := snapsEqual(ref, got); err != nil {
			return fmt.Errorf("schedule %d (%s/%s) post-cancel: %w", i, mix.name, mode, err)
		}
		r.BitIdentical++
		r.CancelResumes++

	case "checkpoint":
		eng, err := core.New(q, env.cat, opt)
		if err != nil {
			return err
		}
		defer eng.Close()
		timelines = append(timelines, eng)
		k := 1 + i%env.opt.Batches // checkpoint after 1..Batches batches
		var got []*core.Snapshot
		for b := 0; b < k; b++ {
			s, err := eng.Step()
			if err != nil {
				return fmt.Errorf("schedule %d (%s/%s) step %d: %w", i, mix.name, mode, b, err)
			}
			got = append(got, s)
		}
		ck1, err := eng.Checkpoint()
		if err != nil {
			return fmt.Errorf("schedule %d (%s/%s) checkpoint: %w", i, mix.name, mode, err)
		}
		res, err := core.Resume(q, env.cat, opt, ck1)
		if err != nil {
			return fmt.Errorf("schedule %d (%s/%s) resume: %w", i, mix.name, mode, err)
		}
		defer res.Close()
		timelines = append(timelines, res)
		ck2, err := res.Checkpoint()
		if err != nil {
			return fmt.Errorf("schedule %d (%s/%s) re-checkpoint: %w", i, mix.name, mode, err)
		}
		if !bytes.Equal(ck1, ck2) {
			return fmt.Errorf("schedule %d (%s/%s): checkpoint round-trip not byte-identical (%d vs %d bytes)",
				i, mix.name, mode, len(ck1), len(ck2))
		}
		for !res.Done() {
			s, err := res.Step()
			if err != nil {
				return fmt.Errorf("schedule %d (%s/%s) continue: %w", i, mix.name, mode, err)
			}
			got = append(got, s)
		}
		if err := snapsEqual(ref, got); err != nil {
			return fmt.Errorf("schedule %d (%s/%s) post-resume: %w", i, mix.name, mode, err)
		}
		r.BitIdentical++
		r.CheckpointRoundTrips++
	}
	if !opt.Profile {
		return nil
	}
	// The fault-riddled run already matched the reference bit-for-bit
	// above; now its timelines must also be structurally sound and
	// export to valid, correctly nested Chrome trace JSON.
	for _, eng := range timelines {
		if err := otrace.ValidateNesting(eng.Spans().Spans()); err != nil {
			return fmt.Errorf("schedule %d (%s/%s): span nesting under faults: %w", i, mix.name, mode, err)
		}
		var buf bytes.Buffer
		if err := eng.Events().WriteChromeTrace(&buf); err != nil {
			return fmt.Errorf("schedule %d (%s/%s): span export: %w", i, mix.name, mode, err)
		}
		_, ni, err := otrace.ValidateChromeJSON(buf.Bytes())
		if err != nil {
			return fmt.Errorf("schedule %d (%s/%s): exported trace invalid: %w", i, mix.name, mode, err)
		}
		if n := len(eng.Events().Events()); ni != n {
			return fmt.Errorf("schedule %d (%s/%s): exported %d instants for %d ring events", i, mix.name, mode, ni, n)
		}
	}
	r.SpanRuns++
	return nil
}

// ChaosSoak runs the given number of seeded fault schedules across the
// profile rotation and fails on the first contract violation: a
// non-bit-identical answer, a mis-typed error, a broken checkpoint
// round-trip, or leaked goroutines.
func ChaosSoak(cfg Config, schedules int) (*ChaosResult, error) {
	if schedules <= 0 {
		schedules = 1000
	}
	env, err := chaosBase(cfg)
	if err != nil {
		return nil, err
	}
	r := &ChaosResult{
		Schedules:   schedules,
		FaultCounts: map[string]int64{},
		ModeCounts:  map[string]int{},
		Profiles:    map[string]int{},
	}
	r.GoroutinesBefore = testutil.GoroutineBaseline()
	start := time.Now()
	for i := 0; i < schedules; i++ {
		if err := runSchedule(env, i, r); err != nil {
			return r, err
		}
	}
	r.ElapsedMS = ms(time.Since(start))
	// Engine pools close synchronously, but worker goroutines need a
	// moment to observe their closed channels; settle before judging.
	r.GoroutinesAfter = testutil.SettleGoroutines(r.GoroutinesBefore, 5*time.Second)
	if r.GoroutinesAfter > r.GoroutinesBefore {
		return r, fmt.Errorf("goroutine leak: %d before soak, %d after", r.GoroutinesBefore, r.GoroutinesAfter)
	}
	return r, nil
}

// FormatChaos renders a soak summary.
func FormatChaos(r *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %d schedules in %.0f ms\n", r.Schedules, r.ElapsedMS)
	fmt.Fprintf(&b, "  bit-identical runs:     %d/%d\n", r.BitIdentical, r.Schedules)
	fmt.Fprintf(&b, "  cancel+resume cycles:   %d\n", r.CancelResumes)
	fmt.Fprintf(&b, "  checkpoint round-trips: %d (all byte-identical)\n", r.CheckpointRoundTrips)
	fmt.Fprintf(&b, "  span-traced runs:       %d (exports validated)\n", r.SpanRuns)
	fmt.Fprintf(&b, "  goroutines before/after: %d/%d\n", r.GoroutinesBefore, r.GoroutinesAfter)
	b.WriteString("  faults fired:\n")
	for _, k := range chaos.Kinds() {
		fmt.Fprintf(&b, "    %-15s %d\n", k, r.FaultCounts[k.String()])
	}
	b.WriteString("  schedules by profile:")
	for _, p := range chaosProfiles {
		if n := r.Profiles[p.name]; n > 0 {
			fmt.Fprintf(&b, " %s=%d", p.name, n)
		}
	}
	b.WriteString("\n")
	return b.String()
}
