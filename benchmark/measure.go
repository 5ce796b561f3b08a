package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/core"
	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// onlineRun is what one online execution showed its client.
type onlineRun struct {
	first, toEps, total time.Duration // from SQL text
	epsBatch            int           // 1-based batch that met eps, 0 if none did
	answer              []types.Row   // final snapshot
	metrics             core.Metrics
	violations          int
}

// compile parses and plans the dataset's SQL text, the two steps plan.Compile
// does, with a span around each.
func compile(ds *dataset, rec *recorder) (*plan.Query, error) {
	sp := rec.begin("sqlparser.Parse")
	stmt, err := sqlparser.Parse(ds.sql)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	sp = rec.begin("plan.CompileStmt")
	q, err := plan.CompileStmt(stmt, ds.sql, ds.cat)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return q, nil
}

// runOnline does what DB.QueryOnline plus a Step loop does, from the SQL
// text to the exact final snapshot, with a span around each layer.
func runOnline(ds *dataset, opt core.Options, eps float64, rec *recorder) (*onlineRun, error) {
	run := &onlineRun{}
	t0 := time.Now()
	q, err := compile(ds, rec)
	if err != nil {
		return nil, err
	}
	sp := rec.begin("core.New")
	eng, err := core.New(q, ds.cat, opt)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	defer eng.Close()
	var last *core.Snapshot
	for !eng.Done() {
		sp = rec.begin("core.Step")
		snap, err := eng.Step()
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", eng.Batch()+1, err)
		}
		run.total = time.Since(t0)
		if run.first == 0 {
			run.first = run.total
		}
		if run.epsBatch == 0 && snap.RSD() <= eps {
			run.epsBatch, run.toEps = snap.Batch, run.total
		}
		last = snap
	}
	if last == nil {
		return nil, errors.New("no snapshot")
	}
	run.answer = last.ValueRows()
	run.violations = len(eng.AuditInvariants())
	run.metrics = eng.Metrics()
	return run, nil
}

// runBatch does what DB.Query does on the same SQL text and data.
func runBatch(ds *dataset, rec *recorder) ([]types.Row, time.Duration, error) {
	t0 := time.Now()
	q, err := compile(ds, rec)
	if err != nil {
		return nil, 0, err
	}
	sp := rec.begin("exec.Run")
	res, err := exec.Run(q, ds.cat)
	rec.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("exec.Run: %w", err)
	}
	return res.Rows, time.Since(t0), nil
}

// checkAnswer is the per-op correctness check: the final online snapshot
// equals the batch answer, no committed decision is contradicted, the exact
// answer is not empty (a query that selects nothing measures nothing), and
// the error target was reached.
func checkAnswer(run *onlineRun, exact []types.Row) error {
	if len(exact) == 0 {
		return errors.New("exact answer is empty")
	}
	if run.violations > 0 {
		return fmt.Errorf("%d invariant violations", run.violations)
	}
	if run.epsBatch == 0 {
		return errors.New("eps never reached")
	}
	return equalRows(run.answer, exact)
}

// equalRows compares two results as sets of rows: sorted by every column,
// numeric cells within 1e-9 relative, other cells equal.
func equalRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("online answer has %d rows, batch answer %d", len(got), len(want))
	}
	got, want = sortedRows(got), sortedRows(want)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !equalCell(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d cell %d: online %s, batch %s", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func sortedRows(rows []types.Row) []types.Row {
	out := append([]types.Row(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for j := range out[a] {
			if j >= len(out[b]) {
				return false
			}
			if c := types.Compare(out[a][j], out[b][j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func equalCell(a, b types.Value) bool {
	fa, oka := a.AsFloat()
	fb, okb := b.AsFloat()
	if oka && okb {
		return math.Abs(fa-fb) <= 1e-9*math.Max(math.Abs(fa), math.Abs(fb))
	}
	return types.Compare(a, b) == 0
}

// samples collects the values of each metric across the ops of a run.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// config is one run of one workload.
type config struct {
	seed    uint64
	seconds float64
	tables  int // seed-derived tables per run; datasetsPerRun outside tests
	trace   bool
	tiny    bool
}

// measured is the raw outcome of a run, before it is summarised.
type measured struct {
	s samples
	// counts holds the metrics with one value per run: the engine's counts
	// in the first traced op of the first table, which are exact under a
	// fixed seed, and the ratios derived from medians.
	counts    map[string]float64
	inputs    []inputStamp
	attempted int
	failures  []string
	rec       *recorder
	// phaseSum is the engine's own phase time over all traced ops, held
	// against the Step spans' wall time in core.unattributed_frac.
	phaseSum time.Duration
}

// measure runs the closed loop of one client on one workload: set up each of
// the run's tables in turn and repeat ops on it until its share of
// cfg.seconds is used. One untimed op comes first, for what a process pays
// once (first use of code paths, heap growth); later tables showed no
// warm-up effect of their own. An op is one online run and one batch run of
// the same SQL, checked against each other; with cfg.trace it also holds a
// second online run with Options.Profile and spans, which gives the
// per-layer numbers and the cost of tracing.
func measure(w *workload, cfg config) *measured {
	m := &measured{s: samples{}, counts: map[string]float64{}}
	if cfg.trace {
		m.rec = newRecorder()
	}
	share := time.Duration(cfg.seconds / float64(cfg.tables) * float64(time.Second))
	for d := 0; d < cfg.tables; d++ {
		ds := w.setup(cfg.seed, d, cfg.tiny, m.rec)
		m.s.add("setup_s", ds.setup.Seconds())
		m.s.add("colstore.bytes_per_row", float64(ds.table.ColumnarBytes())/float64(ds.table.NumRows()))
		m.inputs = append(m.inputs, inputStamp{
			Table: ds.table.Name(), Rows: ds.table.NumRows(),
			Checksum: fmt.Sprintf("%016x", ds.checksum),
		})
		if d == 0 {
			if err := w.op(ds, -1, cfg, &measured{s: samples{}}); err != nil {
				m.failures = append(m.failures, "warm-up: "+err.Error())
			}
		}
		deadline := time.Now().Add(share)
		for op := 0; op == 0 || time.Now().Before(deadline); op++ {
			m.attempted++
			if err := w.op(ds, op, cfg, m); err != nil {
				m.failures = append(m.failures, fmt.Sprintf("table %d op %d: %v", d, op, err))
			}
		}
	}
	if cfg.trace {
		m.spanSamples()
		microBenchmarks(m.s)
	}
	return m
}

// op runs op number n on ds and adds its samples to m. The heap is
// collected before each timed call so that every call starts from the same
// state; collections an op triggers itself stay in its time.
func (w *workload) op(ds *dataset, n int, cfg config, m *measured) error {
	eps := w.eps
	if cfg.tiny {
		eps = w.tinyEps
	}
	opt := w.opt
	opt.Batches, opt.Trials = batches, trials
	// Each op draws its own bootstrap weights, as each query of a session
	// would: the batch at which eps is reached then varies between ops and
	// the run's median does not hang on one draw.
	opt.Seed = derive(ds.seed, uint64(n+1), 1)

	runtime.GC()
	run, err := runOnline(ds, opt, eps, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	root := m.rec.begin("op.batch")
	exact, batch, err := runBatch(ds, m.rec)
	m.rec.end(root)
	if err != nil {
		return err
	}
	if err := checkAnswer(run, exact); err != nil {
		return err
	}
	m.s.add("first_answer_ms", ms(run.first))
	m.s.add("time_to_eps_ms", ms(run.toEps))
	m.s.add("total_online_ms", ms(run.total))
	m.s.add("batch_ms", ms(batch))
	m.s.add("query_mem_peak_mb", float64(run.metrics.MemPeakBytes)/1e6)
	m.s.add("eps_batch", float64(run.epsBatch))
	if !cfg.trace {
		return nil
	}

	opt.Profile = true
	runtime.GC()
	root = m.rec.begin("op.online")
	traced, err := runOnline(ds, opt, eps, m.rec)
	m.rec.end(root)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if err := checkAnswer(traced, exact); err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	m.s.add("traced_total_online_ms", ms(traced.total))
	em := traced.metrics
	ph := em.Phases
	for name, d := range map[string]time.Duration{
		"core.weights_ms": ph.Weights, "core.fold_ms": ph.Fold, "core.join_ms": ph.Join,
		"core.classify_ms": ph.Classify, "core.uncertain_ms": ph.Uncertain,
		"core.recompute_ms": ph.Recompute, "core.ranges_ms": ph.Ranges,
		"core.snapshot_ms": ph.Snapshot,
	} {
		m.s.add(name, ms(d))
	}
	// Replay re-accrues the other phases, so Recompute is left out of the sum.
	m.phaseSum += ph.BatchWork() + ph.Snapshot
	if len(m.counts) == 0 {
		uMax, uSum := 0, 0
		for _, u := range em.UncertainPerBatch {
			uMax = max(uMax, u)
			uSum += u
		}
		m.counts = map[string]float64{
			"core.rows_processed":        float64(em.RowsProcessed),
			"core.deterministic_folds":   float64(em.DeterministicFolds),
			"core.useful_fold_ratio":     float64(em.DeterministicFolds) / float64(em.RowsProcessed),
			"core.uncertain_max":         float64(uMax),
			"core.uncertain_row_batches": float64(uSum),
			"core.recomputes":            float64(em.Recomputes),
			"eps_batch":                  float64(traced.epsBatch),
		}
	}
	return nil
}

// spanSamples turns the recorded spans into per-layer samples: one value per
// op for each layer called once in it, and first/median/max over the Step
// calls of each online op.
func (m *measured) spanSamples() {
	spans := m.rec.spans
	var steps []float64 // Step durations of the op being read, ms
	var stepWall time.Duration
	flush := func() {
		if len(steps) > 0 {
			m.s.add("core.step_first_ms", steps[0])
			m.s.add("core.step_median_ms", median(steps))
			m.s.add("core.step_max_ms", slices.Max(steps))
			steps = steps[:0]
		}
	}
	for _, sp := range spans {
		d := sp.end - sp.start
		root := sp.parent < 0
		if root {
			flush()
		}
		online := !root && spans[sp.parent].name == "op.online"
		switch {
		case sp.name == "workload.generate":
			m.s.add("workload.generate_ms", ms(d))
		case sp.name == "storage.shuffle":
			m.s.add("storage.shuffle_ms", ms(d))
		case sp.name == "colstore.encode":
			m.s.add("colstore.encode_ms", ms(d))
		case sp.name == "exec.Run":
			m.s.add("exec.run_ms", ms(d))
		case online && sp.name == "sqlparser.Parse":
			m.s.add("sqlparser.parse_us", us(d))
		case online && sp.name == "plan.CompileStmt":
			m.s.add("plan.compile_us", us(d))
		case online && sp.name == "core.New":
			m.s.add("core.new_warm_us", us(d))
		case online && sp.name == "core.Step":
			steps = append(steps, ms(d))
			stepWall += d
		}
	}
	flush()
	if stepWall > 0 {
		m.counts["core.unattributed_frac"] = 1 - float64(m.phaseSum)/float64(stepWall)
	}
}

var sink float64

// microBenchmarks times the two bootstrap primitives the weights and
// snapshot layers are built on, outside the engine.
func microBenchmarks(s samples) {
	const weights = 10_000_000
	n := 0
	t0 := time.Now()
	for k := uint64(0); k < weights; k++ {
		n += bootstrap.PoissonAt(k)
	}
	s.add("bootstrap.poisson_ns_per_weight", float64(time.Since(t0).Nanoseconds())/weights)

	const calls = 20000
	rng := bootstrap.NewRNG(1)
	src := make([]float64, trials)
	for i := range src {
		src[i] = rng.Float64()
	}
	buf := make([]float64, trials)
	var lo float64
	t0 = time.Now()
	for c := 0; c < calls; c++ {
		copy(buf, src)
		lo += bootstrap.PercentileCIInPlace(buf, 0.95).Lo
	}
	s.add("bootstrap.ci_ns_per_call", float64(time.Since(t0).Nanoseconds())/calls)
	sink = float64(n) + lo
}
