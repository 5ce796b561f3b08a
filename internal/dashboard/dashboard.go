// Package dashboard implements the web console of the paper's demo
// (§6, Figure 4): an HTTP server that runs online SQL queries against a
// fluodb-style engine and streams each refined snapshot to the browser
// as a Server-Sent Event, so approximate answers with error bars appear
// immediately and tighten live. Closing the request (the browser's Stop
// button) cancels the query — the OLA accuracy/time control knob.
//
// The server doubles as the engine's observability surface: /metrics
// exposes Prometheus-format counters, gauges and per-phase duration
// histograms for every query it runs, and /debug/pprof/ mounts the
// standard Go profiler endpoints.
package dashboard

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sync/atomic"

	"fluodb/internal/audit"
	"fluodb/internal/core"
	"fluodb/internal/metrics"
	"fluodb/internal/plan"
	"fluodb/internal/resource"
	"fluodb/internal/storage"
)

// Server serves the console UI, the SSE query endpoint, and the
// /metrics + pprof observability surface.
type Server struct {
	cat *storage.Catalog
	opt core.Options

	reg          *metrics.Registry
	queries      *metrics.Counter
	active       *metrics.Gauge
	batches      *metrics.Counter
	rows         *metrics.Counter
	recomputes   *metrics.Counter
	uncertain    *metrics.Gauge
	batchSeconds *metrics.Histogram
	phaseSeconds []*metrics.Histogram // aligned with core.PhaseNames
	// Statistical-correctness families (internal/audit): every query the
	// dashboard runs is audited against the batch executor's exact
	// answer, so these track the estimator, not just the runtime.
	detFlips   *metrics.Counter
	violations *metrics.Counter
	// Uncertain evictions by rung 2 of the MaxMemoryBytes degradation
	// ladder, the only eviction route (the series keeps its
	// reason="budget" label).
	evictionsBudget *metrics.Counter
	relErr          *metrics.Histogram
	ciWidth         *metrics.Histogram
	coverageBits    atomic.Uint64 // float64 bits: latest snapshot's CI coverage
	// Convergence-observatory families (core.ConvergencePoint): CI
	// half-width quantiles, throughput, uncertain-cache churn and the
	// ETA-to-1% prediction of the most recent batch.
	hwP50, hwP90, hwMax *metrics.Histogram
	churnIn, churnOut   *metrics.Counter
	rowsPerSecBits      atomic.Uint64 // float64 bits
	etaBits             atomic.Uint64 // float64 bits; NaN until predicted
	// Resource-ledger families (Snapshot.Resources): per-pool byte
	// residency, total/peak, budget degradation rung and GC telemetry of
	// the most recent committed mini-batch.
	memPool     []*metrics.Gauge // aligned with resource.Category
	memTotal    *metrics.Gauge
	memPeak     *metrics.Gauge
	degradeRung *metrics.Gauge
	gcPauseNS   *metrics.Counter
	gcCycles    *metrics.Counter
	heapLive    *metrics.Gauge
	heapGoal    *metrics.Gauge
	// events holds the most recent query's event ring, which exports
	// its span timeline for /trace.
	events atomic.Pointer[core.Tracer]
}

// New builds a dashboard server over a catalog. opt configures the
// online executions (zero values take engine defaults); Profile is
// always on so every query records the span timeline /trace serves.
func New(cat *storage.Catalog, opt core.Options) *Server {
	opt.Profile = true
	s := &Server{cat: cat, opt: opt, reg: metrics.NewRegistry()}
	s.queries = s.reg.Counter("fluodb_queries_total", "Online queries started.")
	s.active = s.reg.Gauge("fluodb_queries_active", "Online queries currently running.")
	s.batches = s.reg.Counter("fluodb_batches_total", "Mini-batches processed across all queries.")
	s.rows = s.reg.Counter("fluodb_rows_total", "Fact rows folded across all queries.")
	s.recomputes = s.reg.Counter("fluodb_recomputes_total", "Variation-range failures that forced a recompute.")
	s.uncertain = s.reg.Gauge("fluodb_uncertain_rows", "Cached uncertain tuples after the most recent mini-batch.")
	s.batchSeconds = s.reg.Histogram("fluodb_batch_seconds", "Mini-batch processing time.")
	for _, name := range core.PhaseNames {
		s.phaseSeconds = append(s.phaseSeconds, s.reg.Histogram(
			fmt.Sprintf("fluodb_phase_seconds{phase=%q}", name),
			"Per-batch time spent in each G-OLA engine phase."))
	}
	s.detFlips = s.reg.Counter("gola_deterministic_flips_total",
		"Committed deterministic decisions contradicted in flight (recovered by replay).")
	s.violations = s.reg.Counter("gola_invariant_violations_total",
		"Committed decisions still contradicted when the invariant audit ran (bugs).")
	s.evictionsBudget = s.reg.Counter(`gola_uncertain_evictions{reason="budget"}`,
		"Uncertain tuples force-resolved by MaxMemoryBytes degradation rung 2 (degraded precision).")
	s.relErr = s.reg.Histogram("gola_relative_error",
		"Per-batch mean relative error of audited estimates vs ground truth (unitless).")
	s.ciWidth = s.reg.Histogram("gola_ci_width",
		"Per-batch mean relative 95% CI width of audited estimates (unitless).")
	s.reg.GaugeFunc("gola_ci_coverage",
		"Fraction of 95% CIs containing ground truth in the most recent audited snapshot.",
		func() float64 { return math.Float64frombits(s.coverageBits.Load()) })
	s.hwP50 = s.reg.Histogram(`gola_ci_halfwidth{q="p50"}`,
		"Relative CI half-width quantiles across output cells, one observation per committed mini-batch (unitless).")
	s.hwP90 = s.reg.Histogram(`gola_ci_halfwidth{q="p90"}`,
		"Relative CI half-width quantiles across output cells, one observation per committed mini-batch (unitless).")
	s.hwMax = s.reg.Histogram(`gola_ci_halfwidth{q="max"}`,
		"Relative CI half-width quantiles across output cells, one observation per committed mini-batch (unitless).")
	s.churnIn = s.reg.Counter(`gola_uncertain_churn_total{dir="in"}`,
		"Uncertain-cache tuple flow per direction: in = fresh arrivals, out = reclassified/evicted departures.")
	s.churnOut = s.reg.Counter(`gola_uncertain_churn_total{dir="out"}`,
		"Uncertain-cache tuple flow per direction: in = fresh arrivals, out = reclassified/evicted departures.")
	s.reg.GaugeFunc("gola_rows_per_second",
		"Fact-row throughput of the most recent committed mini-batch.",
		func() float64 { return math.Float64frombits(s.rowsPerSecBits.Load()) })
	s.etaBits.Store(math.Float64bits(math.NaN()))
	s.reg.GaugeFunc(`gola_eta_seconds{epsilon="0.01"}`,
		"Predicted seconds until every CI half-width is within epsilon (1/sqrt(n) fit); NaN until predictable.",
		func() float64 { return math.Float64frombits(s.etaBits.Load()) })
	for c := resource.Category(0); c < resource.NumCategories; c++ {
		s.memPool = append(s.memPool, s.reg.Gauge(
			fmt.Sprintf("gola_mem_bytes{pool=%q}", c.String()),
			"Resource-ledger residency per pool after the most recent mini-batch (bytes)."))
	}
	s.memTotal = s.reg.Gauge("gola_mem_total_bytes",
		"Total resource-ledger residency after the most recent mini-batch (bytes).")
	s.memPeak = s.reg.Gauge("gola_mem_peak_bytes",
		"High-water total ledger residency of the most recent query (bytes).")
	s.degradeRung = s.reg.Gauge("gola_mem_degrade_rung",
		"Highest MaxMemoryBytes degradation rung engaged (0 none, 1 segment cache dropped, 2 uncertain eviction).")
	s.gcPauseNS = s.reg.Counter("gola_gc_pause_ns_total",
		"GC pause nanoseconds elapsed during dashboard query mini-batches.")
	s.gcCycles = s.reg.Counter("gola_gc_cycles_total",
		"GC cycles completed during dashboard query mini-batches.")
	s.heapLive = s.reg.Gauge("gola_gc_heap_live_bytes",
		"Live heap bytes at the most recent mini-batch boundary.")
	s.heapGoal = s.reg.Gauge("gola_gc_heap_goal_bytes",
		"GC heap goal bytes at the most recent mini-batch boundary.")
	return s
}

// ActiveQueries reports how many query handlers are currently running —
// the value behind the fluodb_queries_active gauge.
func (s *Server) ActiveQueries() int64 { return s.active.Load() }

// Handler returns the HTTP handler: "/" serves the console page,
// "/query?sql=..." streams snapshots, "/metrics" exposes Prometheus
// text, and "/debug/pprof/" mounts the Go profiler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.home)
	mux.HandleFunc("/query", s.Query)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/trace", s.trace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) home(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, homeHTML)
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// trace serves the most recent query's span timeline as Chrome
// trace-event JSON — download and load into Perfetto (ui.perfetto.dev)
// or chrome://tracing. Before any query has run it serves an empty
// trace.
func (s *Server) trace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="fluodb-trace.json"`)
	_ = s.events.Load().WriteChromeTrace(w)
}

// SnapshotJSON is the wire form of one refinement step.
type SnapshotJSON struct {
	Batch     int                `json:"batch"`
	Total     int                `json:"total"`
	Fraction  float64            `json:"fraction"`
	RSD       *float64           `json:"rsd"` // null while Snapshot.RSD is not finite (+Inf: no CI yet)
	Uncertain int                `json:"uncertain"`
	Phases    map[string]float64 `json:"phases,omitempty"` // this batch, phase → ms
	Columns   []string           `json:"columns"`
	Rows      [][]CellJS         `json:"rows"`
	Blocks    []BlockJS          `json:"blocks,omitempty"`
	// Accuracy series (present when the query was audited against the
	// batch executor's exact answer): mean/max relative error, mean
	// relative CI width, and the fraction of CIs covering truth.
	Audited  bool    `json:"audited,omitempty"`
	RelErr   float64 `json:"rel_err,omitempty"`
	MaxErr   float64 `json:"max_err,omitempty"`
	CIWidth  float64 `json:"ci_width,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	// Degraded names the MaxMemoryBytes ladder rungs in force
	// ("budget:segcache", "budget:segcache+evict"); the answer is still
	// a valid estimate.
	Degraded string `json:"degraded,omitempty"`
	// Mem is this batch's memory observation (per-pool residency, GC
	// telemetry, budget state), absent until the ledger has observed.
	Mem *core.ResourceUsage `json:"mem,omitempty"`
	Err string              `json:"error,omitempty"`
	// Conv is this batch's convergence-observatory sample (half-width
	// quantiles, churn, throughput, fit); ETASeconds is the 1/√n-fit
	// prediction of seconds until every half-width is within 1%
	// (present only when ETAKnown).
	Conv       *core.ConvergencePoint `json:"conv,omitempty"`
	ETASeconds float64                `json:"eta_s,omitempty"`
	ETAKnown   bool                   `json:"eta_known,omitempty"`
}

// BlockJS is one lineage block's core.BlockStat on the wire. PhaseMS is
// the block's cumulative per-phase cost so far, phase → milliseconds.
type BlockJS struct {
	Kind       string             `json:"kind"`
	Table      string             `json:"table"`
	Groups     int                `json:"groups"`
	Uncertain  int                `json:"uncertain"`
	Columnar   string             `json:"columnar"`
	Classifier string             `json:"classifier,omitempty"`
	PhaseMS    map[string]float64 `json:"phase_ms,omitempty"`
}

// CellJS is one output cell on the wire.
type CellJS struct {
	V     string  `json:"v"`
	Lo    float64 `json:"lo,omitempty"`
	Hi    float64 `json:"hi,omitempty"`
	HasCI bool    `json:"ci"`
}

// maxRowsPerEvent bounds the payload of one SSE event.
const maxRowsPerEvent = 50

// Query runs one online query, streaming snapshots as SSE events until
// completion or client disconnect.
func (s *Server) Query(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("sql")
	if sql == "" {
		http.Error(w, "missing ?sql=", http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	send := func(v SnapshotJSON) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
	}

	q, err := plan.Compile(sql, s.cat)
	if err != nil {
		send(SnapshotJSON{Err: err.Error()})
		return
	}
	eng, err := core.New(q, s.cat, s.opt)
	if err != nil {
		send(SnapshotJSON{Err: err.Error()})
		return
	}
	defer eng.Close()
	// Each query records a span timeline (New forces Profile on); the
	// latest query that started is served by /trace.
	eng.Spans().SetLabel(sql)
	s.events.Store(eng.Events())
	s.queries.Inc()
	s.active.Add(1)
	defer s.active.Add(-1)
	// Audit every dashboard query against the exact batch answer: the
	// console's tables are laptop-scale, so the oracle costs one batch
	// execution up front and buys live accuracy series. A query the
	// batch executor cannot run (it should not exist) just streams
	// unaudited.
	oracle, oerr := audit.NewOracle(q, s.cat)
	if oerr != nil {
		oracle = nil
	}
	slog.Info("online query started", "sql", sql, "batches", s.opt.Batches)
	ctx := r.Context()
	var prevRows, prevEvict int64
	var prevRecomputes, prevFlips int
	for !eng.Done() {
		snap, err := eng.StepContext(ctx)
		if core.IsInterrupted(err) {
			// Client disconnected (or stopped the query): the engine quit
			// at the mini-batch boundary; the bounded-time answer is snap,
			// but there is no one left to send it to.
			slog.Info("online query interrupted", "sql", sql, "batch", eng.Batch())
			return
		}
		if err != nil {
			slog.Error("online query failed", "sql", sql, "batch", eng.Batch(), "err", err)
			send(SnapshotJSON{Err: err.Error()})
			return
		}
		m := eng.Metrics()
		s.batches.Inc()
		s.rows.Add(m.RowsProcessed - prevRows)
		s.recomputes.Add(int64(m.Recomputes - prevRecomputes))
		s.detFlips.Add(int64(m.DetFlips - prevFlips))
		s.evictionsBudget.Add(m.UncertainEvictions - prevEvict)
		prevRows, prevRecomputes, prevFlips = m.RowsProcessed, m.Recomputes, m.DetFlips
		prevEvict = m.UncertainEvictions
		s.uncertain.Set(int64(snap.UncertainRows))
		s.batchSeconds.Observe(snap.Elapsed)
		for i, d := range snap.Phases.Durations() {
			if d > 0 {
				s.phaseSeconds[i].Observe(d)
			}
		}
		c := snap.Convergence
		if c.HasCI {
			s.hwP50.ObserveValue(c.HalfWidthP50)
			s.hwP90.ObserveValue(c.HalfWidthP90)
			s.hwMax.ObserveValue(c.HalfWidthMax)
		}
		s.churnIn.Add(c.UncertainIn)
		s.churnOut.Add(c.UncertainOut)
		s.rowsPerSecBits.Store(math.Float64bits(c.RowsPerSec))
		if eta, ok := snap.ETA(0.01); ok {
			s.etaBits.Store(math.Float64bits(eta.Seconds()))
		}
		u := snap.Resources
		for i, v := range [...]int64{u.GroupTableBytes, u.UncertainBytes,
			u.ColScratchBytes, u.SegCacheBytes, u.CheckpointBytes} {
			s.memPool[i].Set(v)
		}
		s.memTotal.Set(u.TotalBytes)
		s.memPeak.Set(u.PeakBytes)
		s.degradeRung.Set(int64(u.DegradeRung))
		s.gcPauseNS.Add(u.GCPauseNS)
		s.gcCycles.Add(u.GCCycles)
		s.heapLive.Set(u.HeapLiveBytes)
		s.heapGoal.Set(u.HeapGoalBytes)
		out := EncodeSnapshot(snap)
		if oracle != nil {
			tp := oracle.Compare(snap)
			out.Audited = true
			out.RelErr = tp.MeanRelErr
			out.MaxErr = tp.MaxRelErr
			out.CIWidth = tp.MeanCIWidth
			if tp.CICells > 0 {
				out.Coverage = float64(tp.Covered) / float64(tp.CICells)
				s.coverageBits.Store(math.Float64bits(out.Coverage))
			}
			s.relErr.ObserveValue(tp.MeanRelErr)
			s.ciWidth.ObserveValue(tp.MeanCIWidth)
		}
		send(out)
	}
	// End-of-run consistency audit: every surviving committed decision
	// must agree with the exact final state.
	s.violations.Add(int64(len(eng.AuditInvariants())))
	m := eng.Metrics()
	slog.Info("online query completed", "sql", sql,
		"batches", m.Batches, "rows", m.RowsProcessed,
		"recomputes", m.Recomputes, "mem_peak", m.MemPeakBytes,
		"degrade_rung", m.DegradeRung)
}

// EncodeSnapshot converts an engine snapshot to its wire form.
func EncodeSnapshot(snap *core.Snapshot) SnapshotJSON {
	out := SnapshotJSON{
		Batch:     snap.Batch,
		Total:     snap.TotalBatches,
		Fraction:  snap.FractionProcessed,
		Uncertain: snap.UncertainRows,
		Phases:    snap.Phases.Milliseconds(),
		Degraded:  snap.Degraded,
	}
	if rsd := snap.RSD(); !math.IsInf(rsd, 0) && !math.IsNaN(rsd) {
		out.RSD = &rsd
	}
	if u := snap.Resources; u.TotalBytes > 0 || u.PeakBytes > 0 {
		out.Mem = &u
	}
	if snap.Convergence.Batch > 0 {
		c := snap.Convergence
		out.Conv = &c
		if eta, ok := snap.ETA(0.01); ok {
			out.ETASeconds = eta.Seconds()
			out.ETAKnown = true
		}
	}
	for _, c := range snap.Schema {
		out.Columns = append(out.Columns, c.Name)
	}
	for _, b := range snap.Blocks {
		out.Blocks = append(out.Blocks, BlockJS{
			Kind: b.Kind, Table: b.Table, Groups: b.Groups, Uncertain: b.Uncertain,
			Columnar: b.Columnar, Classifier: b.Classifier, PhaseMS: b.Phases.Milliseconds(),
		})
	}
	limit := len(snap.Rows)
	if limit > maxRowsPerEvent {
		limit = maxRowsPerEvent
	}
	for _, row := range snap.Rows[:limit] {
		var cells []CellJS
		for _, cell := range row {
			cells = append(cells, CellJS{
				V: cell.Value.String(), Lo: cell.CI.Lo, Hi: cell.CI.Hi, HasCI: cell.HasCI,
			})
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

const homeHTML = `<!DOCTYPE html>
<html><head><title>FluoDB console</title><style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 960px; }
textarea { width: 100%; height: 7rem; font-family: monospace; font-size: 14px; }
table { border-collapse: collapse; margin-top: 1rem; width: 100%; }
td, th { border: 1px solid #ccc; padding: 4px 8px; text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f4f4f4; }
.ci { color: #888; font-size: 0.85em; }
#status { margin-top: .5rem; color: #555; }
#phases { margin-top: .25rem; color: #777; font-size: 0.85em; font-family: monospace; }
#accuracy { margin-top: .25rem; color: #777; font-size: 0.85em; font-family: monospace; }
#accuracy .spark { color: #36c; letter-spacing: 1px; }
#conv { margin-top: .25rem; color: #777; font-size: 0.85em; font-family: monospace; }
#conv .spark { color: #c63; letter-spacing: 1px; }
#mem { margin-top: .25rem; color: #777; font-size: 0.85em; font-family: monospace; }
#mem .spark { color: #393; letter-spacing: 1px; }
#mem .degrade { color: #c33; }
progress { width: 100%; }
</style></head><body>
<h1>FluoDB — G-OLA online SQL console</h1>
<p>Tables: <code>sessions</code> (Conviva-style) and <code>lineitem</code>/<code>partsupp</code>
(TPC-H-style). Try the paper's SBI query:</p>
<textarea id="sql">SELECT AVG(play_time) FROM sessions
WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)</textarea><br>
<button onclick="run()">Run online</button>
<button onclick="stop()">Stop (accept current accuracy)</button>
<div id="status"></div>
<div id="phases"></div>
<div id="accuracy"></div>
<div id="conv"></div>
<div id="mem"></div>
<progress id="prog" value="0" max="1"></progress>
<div id="out"></div>
<p><a href="/metrics">/metrics</a> — Prometheus · <a href="/trace">/trace</a> — Perfetto timeline of the last query · <a href="/debug/pprof/">/debug/pprof/</a> — Go profiler</p>
<script>
let es = null;
let errSeries = [];
let hwSeries = [];
let memSeries = [];
function stop() { if (es) { es.close(); es = null; } }
function fmtB(b) {
  if (b >= 1<<30) return (b/(1<<30)).toFixed(2) + 'GiB';
  if (b >= 1<<20) return (b/(1<<20)).toFixed(2) + 'MiB';
  if (b >= 1<<10) return (b/(1<<10)).toFixed(1) + 'KiB';
  return b + 'B';
}
function sparkline(xs) {
  const bars = '▁▂▃▄▅▆▇█';
  const max = Math.max(...xs, 1e-12);
  return xs.map(x => bars[Math.min(bars.length - 1,
    Math.round((x / max) * (bars.length - 1)))]).join('');
}
function run() {
  stop();
  errSeries = [];
  hwSeries = [];
  memSeries = [];
  document.getElementById('accuracy').textContent = '';
  document.getElementById('conv').textContent = '';
  document.getElementById('mem').textContent = '';
  const sql = document.getElementById('sql').value;
  es = new EventSource('/query?sql=' + encodeURIComponent(sql));
  es.onmessage = (ev) => {
    const s = JSON.parse(ev.data);
    if (s.error) {
      document.getElementById('status').textContent = 'error: ' + s.error;
      stop(); return;
    }
    document.getElementById('prog').value = s.fraction;
    document.getElementById('status').textContent =
      'batch ' + s.batch + '/' + s.total + ' — ' + (100*s.fraction).toFixed(0) +
      '% of data — rsd ' + (s.rsd == null ? 'n/a (no estimate yet)' : (100*s.rsd).toFixed(3) + '%') +
      ' — uncertain tuples ' + s.uncertain;
    if (s.phases) {
      const top = Object.entries(s.phases).sort((a, b) => b[1] - a[1]).slice(0, 4)
        .map(([k, v]) => k + ' ' + v.toFixed(1) + 'ms').join(' · ');
      document.getElementById('phases').textContent = top ? 'batch phases: ' + top : '';
    }
    if (s.conv && s.conv.has_ci) {
      hwSeries.push(s.conv.hw_max || 0);
      let line = 'ci half-width <span class="spark">' + sparkline(hwSeries) + '</span> ' +
        'p50 ' + (100*s.conv.hw_p50).toFixed(2) + '% · max ' + (100*s.conv.hw_max).toFixed(2) +
        '% — ' + Math.round(s.conv.rows_per_sec).toLocaleString() + ' rows/s — churn +' +
        s.conv.uncertain_in + '/-' + s.conv.uncertain_out;
      if (s.eta_known) line += ' — eta to 1%: ' + (s.eta_s < 0.0005 ? 'now' : s.eta_s.toFixed(1) + 's');
      document.getElementById('conv').innerHTML = line;
    }
    if (s.mem) {
      memSeries.push(s.mem.total || 0);
      let line = 'mem <span class="spark">' + sparkline(memSeries) + '</span> ' +
        fmtB(s.mem.total) + ' (peak ' + fmtB(s.mem.peak) + ') — tables ' +
        fmtB(s.mem.group_tables) + ' · uncertain ' + fmtB(s.mem.uncertain) + ' · segcache ' + fmtB(s.mem.segment_cache);
      if (s.mem.heap_live) line += ' — heap ' + fmtB(s.mem.heap_live);
      if (s.degraded) line += ' <span class="degrade">degraded: ' + s.degraded + '</span>';
      document.getElementById('mem').innerHTML = line;
    }
    if (s.audited) {
      errSeries.push(s.rel_err || 0);
      document.getElementById('accuracy').innerHTML =
        'rel err <span class="spark">' + sparkline(errSeries) + '</span> ' +
        (100*(s.rel_err||0)).toFixed(2) + '% — ci width ' + (100*(s.ci_width||0)).toFixed(2) +
        '% — ci coverage ' + (100*(s.coverage||0)).toFixed(0) + '%';
    }
    let html = '<table><tr>';
    for (const c of s.columns) html += '<th>' + c + '</th>';
    html += '</tr>';
    for (const row of s.rows) {
      html += '<tr>';
      for (const cell of row) {
        html += '<td>' + (isNaN(+cell.v) ? cell.v : (+cell.v).toFixed(3));
        if (cell.ci) html += ' <span class="ci">[' + cell.lo.toFixed(2) + ', ' + cell.hi.toFixed(2) + ']</span>';
        html += '</td>';
      }
      html += '</tr>';
    }
    html += '</table>';
    document.getElementById('out').innerHTML = html;
    if (s.batch === s.total) stop();
  };
  es.onerror = () => stop();
}
</script></body></html>`
