package bench

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"fluodb/internal/chaos"
	"fluodb/internal/core"
	"fluodb/internal/plan"
	"fluodb/internal/workload"
)

// tiny keeps unit tests fast; shapes are asserted, not absolute times.
var tiny = Config{Rows: 4000, Parts: 30, Batches: 5, Trials: 15, Seed: 3}

func TestFigure3aShape(t *testing.T) {
	r, err := Figure3a(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != tiny.Batches {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.FirstAnswerMS <= 0 || r.BatchEngineMS <= 0 {
		t.Error("timings missing")
	}
	// The first approximate answer must arrive well before the batch
	// engine finishes (the paper's headline property).
	if r.FirstAnswerMS >= r.BatchEngineMS {
		t.Errorf("first answer %.2fms not before batch %.2fms", r.FirstAnswerMS, r.BatchEngineMS)
	}
	// RSD is non-increasing in trend: last ≤ first.
	if r.Points[len(r.Points)-1].RSDPercent > r.Points[0].RSDPercent {
		t.Errorf("RSD grew: first %.3f last %.3f",
			r.Points[0].RSDPercent, r.Points[len(r.Points)-1].RSDPercent)
	}
	out := FormatFig3a(r)
	if !strings.Contains(out, "first answer") {
		t.Error("format")
	}
}

func TestFigure3bShape(t *testing.T) {
	series, err := Figure3b(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(Fig3bQueries) {
		t.Fatalf("series = %d", len(series))
	}
	var first, last float64
	for _, s := range series {
		if len(s.Ratio) != tiny.Batches {
			t.Fatalf("%s: ratios = %d", s.Query, len(s.Ratio))
		}
		first += s.Ratio[0]
		last += s.Ratio[len(s.Ratio)-1]
	}
	// Wall-clock ratios at this tiny scale are too noisy to assert on a
	// shared machine; the growth trend is asserted at medium scale in
	// TestHeadlineShapesMediumScale and recorded at full scale in
	// EXPERIMENTS.md. Here we only log it.
	t.Logf("mean CDM/G-OLA ratio: batch 1 = %.3f, batch %d = %.3f", first, tiny.Batches, last)
	out := FormatFig3b(series)
	if !strings.Contains(out, "Q17") || !strings.Contains(out, "tuples touched per batch, CDM") {
		t.Errorf("format:\n%s", out)
	}
}

// TestTable1 checks T1's headline numbers, which fig3a prints beside
// Figure 3(a): the refresh cadence is derived from the same run.
func TestTable1(t *testing.T) {
	r, err := Figure3a(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Points); n == 0 || r.TotalOnlineMS/float64(n) <= 0 {
		t.Error("refresh cadence missing")
	}
	if out := FormatFig3a(r); !strings.Contains(out, "mean refresh") {
		t.Errorf("format:\n%s", out)
	}
}

func TestTable2AllQueries(t *testing.T) {
	rows, err := Table2(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.PerBatch) != tiny.Batches {
			t.Errorf("%s: per-batch = %d", r.Query, len(r.PerBatch))
		}
		// uncertain sets drain once all data is processed
		if r.Final != 0 {
			t.Errorf("%s: final uncertain = %d", r.Query, r.Final)
		}
	}
	if out := FormatT2(rows); !strings.Contains(out, "SBI") {
		t.Error("format")
	}
}

// TestAblationEpsilonTrend pins the ε trade (§3.2) on SBI, a stable
// global threshold, and Q17, fragile per-part ranges: a larger slack
// costs no more recomputes and keeps at least as many uncertain tuples.
func TestAblationEpsilonTrend(t *testing.T) {
	for _, name := range []string{"SBI", "Q17"} {
		wq, _ := workload.ByName(name)
		cat := catalogFor(wq, tiny)
		// run returns the recompute count and the peak uncertain-set size.
		run := func(eps float64) (int, int) {
			q, err := plan.Compile(wq.SQL, cat)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.New(q, cat, core.Options{
				Batches: tiny.Batches, Trials: tiny.Trials, Seed: tiny.EngineSeed(), EpsilonSigma: eps,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			peak := 0
			if _, err := eng.Run(func(s *core.Snapshot) bool {
				peak = max(peak, s.UncertainRows)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return eng.Metrics().Recomputes, peak
		}
		smallRe, smallPeak := run(0.05)
		largeRe, largePeak := run(4)
		if largeRe > smallRe {
			t.Errorf("%s recomputes: eps=4 → %d > eps=0.05 → %d", name, largeRe, smallRe)
		}
		if largePeak < smallPeak {
			t.Errorf("%s peak uncertain: eps=4 → %d < eps=0.05 → %d", name, largePeak, smallPeak)
		}
	}
}

// TestAblationBatches runs Figure 3(a) at coarse and fine mini-batch
// granularity (§2.1): one snapshot per mini-batch either way.
func TestAblationBatches(t *testing.T) {
	var first [2]float64
	for i, k := range []int{2, 8} {
		cfg := tiny
		cfg.Batches = k
		r, err := Figure3a(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != k {
			t.Fatalf("k=%d: points = %d", k, len(r.Points))
		}
		first[i] = r.FirstAnswerMS
	}
	// More batches ⇒ earlier first answer; too noisy to assert at this scale.
	if first[1] >= first[0] {
		t.Logf("note: first answer k=8 (%.2fms) not earlier than k=2 (%.2fms) at tiny scale",
			first[1], first[0])
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Rows == 0 || c.Parts == 0 || c.Batches == 0 || c.Trials == 0 || c.Seed == 0 {
		t.Errorf("defaults = %+v", c)
	}
}

// TestHeadlineShapesMediumScale pins the paper's headline shapes at a
// scale big enough to be meaningful but small enough for CI. Skipped
// under -short.
func TestHeadlineShapesMediumScale(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale shape regression")
	}
	cfg := Config{Rows: 60000, Batches: 10, Trials: 50, Seed: 20150531}

	// Figure 3(a): first answer arrives well before the batch engine,
	// and the RSD decays monotonically in trend.
	fa, err := Figure3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa.FirstAnswerMS >= fa.BatchEngineMS {
		t.Errorf("first answer %.1fms not before batch %.1fms", fa.FirstAnswerMS, fa.BatchEngineMS)
	}
	if last, first := fa.Points[len(fa.Points)-1].RSDPercent, fa.Points[0].RSDPercent; last > first {
		t.Errorf("RSD grew: %.3f → %.3f", first, last)
	}

	// Figure 3(b): averaged over the suite, CDM/G-OLA grows through the
	// window (CDM re-reads the prefix; G-OLA touches ΔD + uncertain).
	// The work behind the claim is deterministic and asserted exactly;
	// the wall-clock ratio is taken per point as the median of three
	// runs, so load from concurrently tested packages cannot flip it.
	const runs = 3
	fbs := make([][]Fig3bSeries, runs)
	for r := range fbs {
		if fbs[r], err = Figure3b(cfg); err != nil {
			t.Fatal(err)
		}
	}
	fb := fbs[0]
	for r := 1; r < runs; r++ {
		for qi, s := range fbs[r] {
			if !reflect.DeepEqual(s.GolaRows, fb[qi].GolaRows) || !reflect.DeepEqual(s.CdmRows, fb[qi].CdmRows) {
				t.Fatalf("%s: tuples touched differ between runs under one seed", s.Query)
			}
		}
	}
	var rowsFirst, rowsSecond float64
	for _, s := range fb {
		half := len(s.CdmRows) / 2
		for i, c := range s.CdmRows {
			// CDM maintains Q11's root incrementally (its nested
			// aggregate sits in HAVING) and re-reads the whole prefix of
			// every other root: exactly i+1 equal mini-batches.
			want := s.CdmRows[0] * int64(i+1)
			if s.Query == "Q11" {
				want = s.CdmRows[0]
			}
			if c != want {
				t.Errorf("%s batch %d: CDM touched %d root tuples, want %d", s.Query, i+1, c, want)
			}
			g := s.GolaRows[i]
			if g < s.GolaRows[0] {
				t.Errorf("%s batch %d: G-OLA touched %d root tuples, fewer than the first batch's %d", s.Query, i+1, g, s.GolaRows[0])
			}
			switch s.Query {
			case "C1", "C2", "C3":
				// Tiny uncertain sets: ΔD plus at most a third more.
				if 3*g > 4*s.GolaRows[0] {
					t.Errorf("%s batch %d: G-OLA touched %d root tuples for a %d-tuple batch", s.Query, i+1, g, s.GolaRows[0])
				}
			}
			if i < half {
				rowsFirst += float64(c) / float64(g)
			} else {
				rowsSecond += float64(c) / float64(g)
			}
		}
	}
	if rowsSecond <= rowsFirst {
		t.Errorf("mean tuples-touched ratio did not grow: first half %.2f, second half %.2f", rowsFirst, rowsSecond)
	}
	var first, second float64
	for qi, s := range fb {
		half := len(s.Ratio) / 2
		for i := range s.Ratio {
			r := median3(fbs[0][qi].Ratio[i], fbs[1][qi].Ratio[i], fbs[2][qi].Ratio[i])
			if i < half {
				first += r
			} else {
				second += r
			}
		}
	}
	if second <= first {
		t.Errorf("median-of-%d mean ratio did not grow: first half %.2f, second half %.2f", runs, first, second)
	}

	// T2: the Conviva-style queries keep tiny uncertain sets (the
	// paper's "very small in practice"), and every query drains to zero.
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t2 {
		if row.Final != 0 {
			t.Errorf("%s: final uncertain = %d", row.Query, row.Final)
		}
		switch row.Query {
		case "SBI", "C1", "C2", "C3":
			if row.MaxPctOfSeen > 6 {
				t.Errorf("%s: uncertain peak %.2f%% of seen (want ≤ 6%%)", row.Query, row.MaxPctOfSeen)
			}
		case "Q11":
			if row.MaxUncertain != 0 {
				t.Errorf("Q11: uncertain = %d (HAVING-only uncertainty caches nothing)", row.MaxUncertain)
			}
		}
	}
}

// median3 returns the middle of three values.
func median3(a, b, c float64) float64 {
	return max(min(a, b), min(max(a, b), c))
}

func TestAsciiChart(t *testing.T) {
	r, err := Figure3a(tiny)
	if err != nil {
		t.Fatal(err)
	}
	chart := AsciiChart(r, 60, 10)
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "RSD%") {
		t.Errorf("chart = %q", chart)
	}
	if AsciiChart(r, 4, 2) != "" {
		t.Error("degenerate dimensions should yield empty chart")
	}
	if AsciiChart(&Fig3aResult{}, 60, 10) != "" {
		t.Error("empty result should yield empty chart")
	}
	// A point without an error estimate (RSD +Inf) is skipped, not used
	// to scale the axis, and its JSON form is null.
	inf := &Fig3aResult{BatchEngineMS: 10, Points: []Fig3aPoint{
		{Batch: 1, ElapsedMS: 1, RSDPercent: math.Inf(1)},
		{Batch: 2, ElapsedMS: 2, RSDPercent: 5},
	}}
	chart = AsciiChart(inf, 60, 10)
	if !strings.Contains(chart, "max 5.00") || strings.Count(chart, "*") != 1 {
		t.Errorf("chart with a +Inf point = %q", chart)
	}
	b, err := json.Marshal(inf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"RSDPercent":null`) || !strings.Contains(string(b), `"RSDPercent":5`) {
		t.Errorf("JSON = %s", b)
	}
}

// TestChaosGate is the CI slice of the robustness soak: one pass over
// every (profile, mode, query) combination of the rotation, small enough
// to run under -race in the tier-1 suite. The full soak is `flbench
// -experiment chaos` (or `make chaos`).
func TestChaosGate(t *testing.T) {
	n := len(chaosProfiles) * len(chaosModes) * len(chaosQueries)
	if testing.Short() {
		n = len(chaosProfiles) * len(chaosModes) // first query only
	}
	res, err := ChaosSoak(tiny, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitIdentical != res.Schedules {
		t.Fatalf("%d/%d schedules bit-identical", res.BitIdentical, res.Schedules)
	}
	// Every fault kind some profile in the rotation enables must have
	// fired at least once.
	for _, p := range chaosProfiles {
		probs := map[chaos.Kind]float64{
			chaos.KindPanic: p.cfg.PanicProb, chaos.KindStraggler: p.cfg.StragglerProb,
			chaos.KindCorrupt: p.cfg.CorruptProb, chaos.KindSegSeal: p.cfg.SegSealDropProb,
		}
		if len(probs) != len(chaos.Kinds()) {
			t.Fatalf("gate maps %d fault kinds, chaos has %d", len(probs), len(chaos.Kinds()))
		}
		for k, prob := range probs {
			if prob > 0 && res.FaultCounts[k.String()] == 0 {
				t.Errorf("fault kind %s (enabled by profile %s) never fired", k, p.name)
			}
		}
	}
	if res.CheckpointRoundTrips == 0 || res.CancelResumes == 0 {
		t.Fatalf("modes not exercised: %+v", res.ModeCounts)
	}
	out := FormatChaos(res)
	if !strings.Contains(out, "bit-identical") {
		t.Fatalf("FormatChaos output malformed:\n%s", out)
	}
	for _, k := range chaos.Kinds() {
		if !strings.Contains(out, k.String()) {
			t.Fatalf("FormatChaos omits fault kind %s:\n%s", k, out)
		}
	}
}
