package dashboard

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"fluodb/internal/chaos"
	"fluodb/internal/core"
	"fluodb/internal/otrace"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/testutil"
	"fluodb/internal/types"
	"fluodb/internal/workload"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	cat := workload.ConvivaCatalog(2000, 9)
	return New(cat, core.Options{Batches: 5, Trials: 10, Seed: 3})
}

func TestHomePageServed(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "FluoDB") {
		t.Error("home page content")
	}
}

func TestQueryStreamsSnapshots(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?sql=" +
		"SELECT+AVG(play_time)+FROM+sessions+WHERE+buffer_time+%3E+(SELECT+AVG(buffer_time)+FROM+sessions)")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var snaps []SnapshotJSON
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var s SnapshotJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if s.Err != "" {
			t.Fatalf("error event: %s", s.Err)
		}
		snaps = append(snaps, s)
	}
	if len(snaps) != 5 {
		t.Fatalf("snapshots = %d, want 5", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Fraction != 1 || last.Batch != 5 || last.Total != 5 {
		t.Errorf("last snapshot: %+v", last)
	}
	if len(last.Columns) != 1 || len(last.Rows) != 1 {
		t.Errorf("shape: cols=%v rows=%d", last.Columns, len(last.Rows))
	}
	if !snaps[len(snaps)-2].Rows[0][0].HasCI {
		t.Error("aggregate cell should carry a CI before completion")
	}
	if last.Rows[0][0].HasCI {
		t.Error("the exact final answer should carry no CI")
	}
	// RSD tightens from first to last snapshot, and reads 0 once the
	// answer is exact; a snapshot with no estimate yet (rsd null) reads
	// as +Inf.
	if last.RSD == nil || *last.RSD != 0 {
		t.Fatalf("last snapshot rsd = %v, want 0", last.RSD)
	}
	if snaps[0].RSD != nil && *snaps[0].RSD < *last.RSD {
		t.Errorf("rsd grew: %v → %v", *snaps[0].RSD, *last.RSD)
	}
}

func TestQueryErrorsAreEvents(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?sql=SELECT+nope+FROM+sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	found := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			var s SnapshotJSON
			_ = json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &s)
			if s.Err != "" {
				found = true
			}
		}
	}
	if !found {
		t.Error("compile error should arrive as an SSE event")
	}
}

func TestQueryMissingSQLIs400(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestClientDisconnectCancelsQuery(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+
		"/query?sql=SELECT+AVG(play_time)+FROM+sessions", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// read one event then hang up — the handler must return promptly
	// and release the query goroutine (the active-queries gauge drops
	// back to zero).
	buf := make([]byte, 256)
	_, _ = resp.Body.Read(buf)
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.ActiveQueries() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("query goroutine not released: %d still active", s.ActiveQueries())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.queries.Load(); got != 1 {
		t.Fatalf("queries counter = %d, want 1", got)
	}
}

func TestEncodeSnapshotRowCap(t *testing.T) {
	cat := workload.ConvivaCatalog(3000, 10)
	s := New(cat, core.Options{Batches: 3, Trials: 8, Seed: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// user_id has hundreds of groups — events must cap at 50 rows
	resp, err := http.Get(srv.URL + "/query?sql=" +
		"SELECT+user_id,+COUNT(*)+FROM+sessions+GROUP+BY+user_id")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "data: ") {
			continue
		}
		var snap SnapshotJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Rows) > maxRowsPerEvent {
			t.Fatalf("event carries %d rows", len(snap.Rows))
		}
	}
}

// TestEncodeSnapshotNoEstimate: before the last batch, a snapshot whose
// estimated column has no CI yet (every value read so far is NULL) has
// RSD +Inf, which encodes as rsd null; encoding/json rejects +Inf.
func TestEncodeSnapshotNoEstimate(t *testing.T) {
	tab := storage.NewTable("t", types.NewSchema("x", types.KindFloat))
	for i := 0; i < 40; i++ {
		v := types.NewFloat(float64(i))
		if i < 10 {
			v = types.Null
		}
		_ = tab.Append(types.Row{v})
	}
	cat := storage.NewCatalog()
	cat.Put(tab)
	q, err := plan.Compile("SELECT AVG(x) FROM t", cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(q, cat, core.Options{Batches: 4, Trials: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	snap, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(snap.RSD(), 1) {
		t.Fatalf("RSD = %v, want +Inf", snap.RSD())
	}
	b, err := json.Marshal(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"rsd":null`) {
		t.Errorf("payload = %s", b)
	}
}

func TestBlocksInPayload(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?sql=" +
		"SELECT+AVG(play_time)+FROM+sessions+WHERE+buffer_time+%3E+(SELECT+AVG(buffer_time)+FROM+sessions)")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "data: ") {
			continue
		}
		var s SnapshotJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &s); err != nil {
			t.Fatal(err)
		}
		if len(s.Blocks) != 2 {
			t.Fatalf("blocks = %d", len(s.Blocks))
		}
		if s.Blocks[0].Kind != "scalar" || s.Blocks[1].Kind != "root" {
			t.Fatalf("block kinds = %+v", s.Blocks)
		}
		// The root's plan verdict and the classifier of its uncertain
		// predicate ride along.
		if s.Blocks[1].Columnar == "" || s.Blocks[1].Classifier == "" {
			t.Fatalf("root block plan = %+v", s.Blocks[1])
		}
		break
	}
}

// TestPhasesInPayload checks the SSE wire form carries per-batch and
// per-block phase timings (New forces the profiler on).
func TestPhasesInPayload(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?sql=" +
		"SELECT+AVG(play_time)+FROM+sessions+WHERE+buffer_time+%3E+(SELECT+AVG(buffer_time)+FROM+sessions)")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "data: ") {
			continue
		}
		var s SnapshotJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &s); err != nil {
			t.Fatal(err)
		}
		if s.Phases["fold"] <= 0 || s.Phases["snapshot"] <= 0 {
			t.Fatalf("snapshot phases missing: %v", s.Phases)
		}
		for _, b := range s.Blocks {
			if b.PhaseMS["fold"] <= 0 {
				t.Fatalf("block %s carries no fold time: %v", b.Kind, b.PhaseMS)
			}
		}
		break
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// Run one query to completion so the counters move.
	resp, err := http.Get(srv.URL + "/query?sql=SELECT+AVG(play_time)+FROM+sessions")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE fluodb_queries_total counter",
		"fluodb_queries_total 1",
		"fluodb_queries_active 0",
		"fluodb_batches_total 5",
		"# TYPE fluodb_rows_total counter",
		"fluodb_recomputes_total",
		"# TYPE fluodb_uncertain_rows gauge",
		"# TYPE fluodb_batch_seconds histogram",
		"fluodb_batch_seconds_count 5",
		`fluodb_phase_seconds_bucket{phase="fold",le="+Inf"}`,
		`fluodb_phase_seconds_bucket{phase="snapshot",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The catalog has 2000 rows and the query scans all of them.
	if !strings.Contains(text, "fluodb_rows_total 2000") {
		t.Fatalf("rows counter wrong:\n%s", text)
	}
	// The fold phase histogram recorded all five batches.
	if !strings.Contains(text, `fluodb_phase_seconds_count{phase="fold"} 5`) {
		t.Fatalf("fold phase histogram not populated:\n%s", text)
	}
}

func TestPprofEndpoints(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
		"/debug/pprof/heap",
		"/debug/pprof/goroutine",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status = %d", path, resp.StatusCode)
		}
	}
}

// TestAccuracySeriesAndGolaMetrics: dashboard queries are audited
// against the batch executor's exact answer, so SSE events must carry
// the accuracy series and /metrics the gola_* statistical families.
func TestAccuracySeriesAndGolaMetrics(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?sql=" +
		"SELECT+AVG(play_time)+FROM+sessions+WHERE+buffer_time+%3E+(SELECT+AVG(buffer_time)+FROM+sessions)")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var snaps []SnapshotJSON
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var sj SnapshotJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sj); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, sj)
	}
	resp.Body.Close()
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	for _, sj := range snaps {
		if !sj.Audited {
			t.Fatalf("snapshot %d not audited", sj.Batch)
		}
	}
	// Early batches estimate, so relative error is nonzero; the final
	// batch is exact.
	if snaps[0].RelErr == 0 && snaps[0].CIWidth == 0 {
		t.Error("first snapshot carries no accuracy series")
	}
	last := snaps[len(snaps)-1]
	if last.RelErr > 1e-9 {
		t.Errorf("final snapshot rel_err = %g, want ~0 (exactness)", last.RelErr)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE gola_deterministic_flips_total counter",
		"gola_invariant_violations_total 0",
		"# TYPE gola_relative_error histogram",
		"gola_relative_error_count 5",
		"gola_ci_width_count 5",
		"# TYPE gola_ci_coverage gauge",
		"# TYPE gola_uncertain_evictions counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestClientDisconnectMidChaos is the robustness satellite: a client
// that hangs up while the engine is absorbing injected worker panics
// must still release the handler (ActiveQueries drains) and leak no
// goroutines — the contained-panic path cannot strand pool workers.
func TestClientDisconnectMidChaos(t *testing.T) {
	cat := workload.ConvivaCatalog(4000, 9)
	s := New(cat, core.WithSeams(core.Options{
		Batches: 8, Trials: 16, Seed: 3, Parallelism: 4,
	}, core.Seams{
		PartRows: 64,
		Chaos:    chaos.New(chaos.Config{Seed: 77, PanicProb: 0.3, CorruptProb: 0.2}),
	}))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	baseline := testutil.GoroutineBaseline()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+
			"/query?sql=SELECT+AVG(play_time)+FROM+sessions+WHERE+buffer_time+%3E+(SELECT+AVG(buffer_time)+FROM+sessions)", nil)
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read one event so the engine is mid-run, then hang up.
		buf := make([]byte, 256)
		_, _ = resp.Body.Read(buf)
		cancel()
		resp.Body.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.ActiveQueries() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("handlers not released under chaos: %d still active", s.ActiveQueries())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Engine pools close with their handlers; allow the runtime a moment
	// to reap worker goroutines, then require no leak beyond transient
	// HTTP conns.
	testutil.VerifyNoLeaks(t, baseline)
}

// TestConvergencePayloadAndTrace: SSE events must carry the
// convergence-observatory sample, /metrics the gola_* convergence
// families, and /trace a valid, correctly nested Chrome trace of the
// query that just ran.
func TestConvergencePayloadAndTrace(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Before any query, /trace serves an empty (but valid) trace.
	tresp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if ns, _, err := otrace.ValidateChromeJSON(body); err != nil || ns != 0 {
		t.Fatalf("empty trace invalid: spans=%d err=%v", ns, err)
	}

	resp, err := http.Get(srv.URL + "/query?sql=" +
		"SELECT+country,+AVG(play_time)+FROM+sessions+GROUP+BY+country")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var snaps []SnapshotJSON
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "data: ") {
			continue
		}
		var sj SnapshotJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &sj); err != nil {
			t.Fatal(err)
		}
		if sj.Err != "" {
			t.Fatalf("error event: %s", sj.Err)
		}
		snaps = append(snaps, sj)
	}
	resp.Body.Close()
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	for _, sj := range snaps {
		if sj.Conv == nil {
			t.Fatalf("snapshot %d carries no convergence sample", sj.Batch)
		}
		if sj.Conv.Batch != sj.Batch {
			t.Fatalf("conv batch %d on snapshot %d", sj.Conv.Batch, sj.Batch)
		}
	}
	if c := snaps[0].Conv; !c.HasCI || c.HalfWidthMax <= 0 {
		t.Fatalf("first batch conv sample empty: %+v", c)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"# TYPE gola_ci_halfwidth histogram",
		// Five snapshots, the last exact: four carry a CI.
		`gola_ci_halfwidth_count{q="p50"} 4`,
		`gola_ci_halfwidth_count{q="max"} 4`,
		"# TYPE gola_uncertain_churn_total counter",
		`gola_uncertain_churn_total{dir="in"}`,
		`gola_uncertain_churn_total{dir="out"}`,
		"# TYPE gola_rows_per_second gauge",
		"# TYPE gola_eta_seconds gauge",
		`gola_eta_seconds{epsilon="0.01"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// /trace now carries the finished query's timeline, Perfetto-valid.
	tresp2, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if ct := tresp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content type = %q", ct)
	}
	tbody, _ := io.ReadAll(tresp2.Body)
	tresp2.Body.Close()
	ns, _, err := otrace.ValidateChromeJSON(tbody)
	if err != nil {
		t.Fatalf("trace export invalid: %v", err)
	}
	if ns == 0 {
		t.Fatal("trace carries no spans after a query")
	}
}

// TestMemPayloadAndMetrics: SSE events carry the per-batch memory
// observation, and /metrics the gola_mem_* / gola_gc_* resource-ledger
// families with the budget eviction counter. The server runs
// under a 1-byte MaxMemoryBytes so the full degradation ladder engages
// and the budget gauges move.
func TestMemPayloadAndMetrics(t *testing.T) {
	cat := workload.ConvivaCatalog(2000, 9)
	s := New(cat, core.Options{Batches: 5, Trials: 10, Seed: 3, MaxMemoryBytes: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query?sql=" +
		"SELECT+country,+AVG(play_time)+FROM+sessions+GROUP+BY+country")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var snaps []SnapshotJSON
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "data: ") {
			continue
		}
		var sj SnapshotJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &sj); err != nil {
			t.Fatal(err)
		}
		if sj.Err != "" {
			t.Fatalf("error event: %s", sj.Err)
		}
		snaps = append(snaps, sj)
	}
	resp.Body.Close()
	if len(snaps) != 5 {
		t.Fatalf("snapshots = %d, want 5", len(snaps))
	}
	for _, sj := range snaps {
		if sj.Mem == nil || sj.Mem.TotalBytes <= 0 {
			t.Fatalf("batch %d: no mem payload: %+v", sj.Batch, sj.Mem)
		}
		if sj.Mem.PeakBytes < sj.Mem.TotalBytes {
			t.Fatalf("batch %d: peak %d below total %d", sj.Batch, sj.Mem.PeakBytes, sj.Mem.TotalBytes)
		}
		if sj.Mem.DegradeRung != 2 || sj.Mem.BudgetBytes != 1 {
			t.Fatalf("batch %d: budget state %+v, want rung 2 under 1-byte budget", sj.Batch, sj.Mem)
		}
		if sj.Degraded != "budget:segcache+evict" {
			t.Fatalf("batch %d: Degraded = %q", sj.Batch, sj.Degraded)
		}
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"# TYPE gola_mem_bytes gauge",
		`gola_mem_bytes{pool="group-tables"}`,
		`gola_mem_bytes{pool="uncertain-cache"}`,
		`gola_mem_bytes{pool="col-scratch"}`,
		`gola_mem_bytes{pool="segment-cache"}`,
		`gola_mem_bytes{pool="checkpoint"}`,
		"# TYPE gola_mem_total_bytes gauge",
		"# TYPE gola_mem_peak_bytes gauge",
		"gola_mem_degrade_rung 2",
		"# TYPE gola_gc_pause_ns_total counter",
		"# TYPE gola_gc_cycles_total counter",
		"# TYPE gola_gc_heap_live_bytes gauge",
		"# TYPE gola_gc_heap_goal_bytes gauge",
		"# TYPE gola_uncertain_evictions counter",
		`gola_uncertain_evictions{reason="budget"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Rung 2 is the only eviction route: no other reason is exported.
	if strings.Contains(text, `gola_uncertain_evictions{reason="cap"}`) {
		t.Fatal("/metrics still exports the removed row-cap eviction series")
	}
	// The heap gauges reflect a live process, and the total moved.
	if strings.Contains(text, "gola_gc_heap_live_bytes 0\n") {
		t.Fatal("heap live gauge never set")
	}
	if strings.Contains(text, "gola_mem_total_bytes 0\n") {
		t.Fatal("mem total gauge never set")
	}
}

// TestTraceSurvivesFailedQuery: a query that compiles but that the
// engine refuses to build (projection-only: nothing to refine) reports
// its error and leaves /trace serving the previous query's timeline.
func TestTraceSurvivesFailedQuery(t *testing.T) {
	srv := httptest.NewServer(testServer(t).Handler())
	defer srv.Close()
	stream := func(sql string) (errs int) {
		resp, err := http.Get(srv.URL + "/query?sql=" + url.QueryEscape(sql))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var sj SnapshotJSON
			if strings.HasPrefix(sc.Text(), "data: ") &&
				json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &sj) == nil && sj.Err != "" {
				errs++
			}
		}
		return errs
	}
	traceSpans := func() int {
		resp, err := http.Get(srv.URL + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ns, _, err := otrace.ValidateChromeJSON(body)
		if err != nil {
			t.Fatalf("trace export invalid: %v", err)
		}
		return ns
	}
	if errs := stream("SELECT country, AVG(play_time) FROM sessions GROUP BY country"); errs != 0 {
		t.Fatalf("aggregate query streamed %d error events", errs)
	}
	before := traceSpans()
	if before == 0 {
		t.Fatal("trace carries no spans after a query")
	}
	if errs := stream("SELECT country, play_time FROM sessions"); errs == 0 {
		t.Fatal("projection-only query should fail to build")
	}
	if after := traceSpans(); after != before {
		t.Fatalf("failed query replaced /trace: %d spans, had %d", after, before)
	}
}
