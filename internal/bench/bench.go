// Package bench regenerates the figures and quantitative claims of the
// paper's evaluation (§5): Figure 3(a), Figure 3(b) and the T2
// uncertain-set profile (T1's headline numbers are part of Figure
// 3(a)'s result). Each experiment returns a structured result whose
// fields correspond to the series/rows the paper reports; the flbench
// command renders them as tables or CSV. The package also hosts the
// chaos soak (chaos.go) and the traced single-query run (trace.go).
// See DESIGN.md §4 for the experiment index.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"fluodb/internal/baseline"
	"fluodb/internal/core"
	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/workload"
)

// Config scales the experiments. The defaults target a laptop: the
// paper ran 100 GB per dataset on a 100-node cluster; shapes (who wins,
// growth trends, crossovers) are preserved at this scale, absolute
// seconds are not.
type Config struct {
	Rows    int // fact-table rows
	Parts   int // distinct parts for the TPC-H-style data
	Batches int // k
	Trials  int // B bootstrap trials
	Seed    uint64
	// SeedSet marks Seed as explicitly chosen, letting a caller request
	// seed 0 itself (the zero value otherwise means "use the default").
	SeedSet bool
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 100000
	}
	if c.Parts <= 0 {
		c.Parts = c.Rows/150 + 10
	}
	if c.Batches <= 0 {
		c.Batches = 10
	}
	if c.Trials <= 0 {
		c.Trials = 100
	}
	if c.Seed == 0 && !c.SeedSet {
		c.Seed = 20150531 // SIGMOD'15 opening day
	}
	return c
}

// EngineSeed is the seed handed to the catalog and engine layers, which
// treat 0 as "use the built-in default". An explicitly requested seed 0
// therefore maps to a fixed distinct constant so it still names one
// reproducible world rather than silently aliasing the default.
func (c Config) EngineSeed() uint64 {
	if c.Seed == 0 {
		return 0x5EED0DB
	}
	return c.Seed
}

// catalogFor builds the dataset a suite query needs.
func catalogFor(q workload.Query, cfg Config) *storage.Catalog {
	if q.Dataset == "conviva" {
		return workload.ConvivaCatalog(cfg.Rows, cfg.EngineSeed())
	}
	return workload.TPCHCatalog(cfg.Rows, cfg.Parts, cfg.EngineSeed())
}

// ---------------------------------------------------------------------
// Figure 3(a): relative standard deviation vs. query time for TPC-H Q17
// under G-OLA, with the batch engine's completion time as reference.
// ---------------------------------------------------------------------

// Fig3aPoint is one point of the refinement curve.
type Fig3aPoint struct {
	Batch       int
	ElapsedMS   float64 // cumulative G-OLA time when the snapshot appeared
	RSDPercent  float64 // +Inf when the snapshot had no error estimate yet
	Uncertain   int
	FractionPct float64
}

// MarshalJSON writes a non-finite RSDPercent (no error estimate yet) as
// null, since JSON has no infinity.
func (p Fig3aPoint) MarshalJSON() ([]byte, error) {
	var rsd *float64
	if !math.IsInf(p.RSDPercent, 0) && !math.IsNaN(p.RSDPercent) {
		rsd = &p.RSDPercent
	}
	return json.Marshal(struct {
		Batch       int
		ElapsedMS   float64
		RSDPercent  *float64
		Uncertain   int
		FractionPct float64
	}{p.Batch, p.ElapsedMS, rsd, p.Uncertain, p.FractionPct})
}

// Fig3aResult is the full Figure 3(a) data.
type Fig3aResult struct {
	Query            string
	Points           []Fig3aPoint
	BatchEngineMS    float64 // the vertical bar
	FirstAnswerMS    float64
	FirstAnswerPct   float64 // first answer as % of batch time (paper: ~1.6%)
	TotalOnlineMS    float64
	OverheadPct      float64 // G-OLA total vs batch (paper: ~+60%)
	TimeTo2PctMS     float64 // time until RSD ≤ 2% (paper: ~10× faster), -1 if never
	SpeedupAt2PctRSD float64
}

// Figure3a runs the experiment.
func Figure3a(cfg Config) (*Fig3aResult, error) {
	cfg = cfg.WithDefaults()
	wq, _ := workload.ByName("Q17")
	cat := catalogFor(wq, cfg)

	// Batch engine reference (the vertical bar in the plot).
	qb, err := plan.Compile(wq.SQL, cat)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := exec.Run(qb, cat); err != nil {
		return nil, err
	}
	batchMS := ms(time.Since(t0))

	qo, err := plan.Compile(wq.SQL, cat)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(qo, cat, core.Options{
		Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.EngineSeed(),
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res := &Fig3aResult{Query: wq.Name, BatchEngineMS: batchMS, TimeTo2PctMS: -1}
	var cum float64
	start := time.Now()
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			return nil, err
		}
		cum = ms(time.Since(start))
		p := Fig3aPoint{
			Batch:       s.Batch,
			ElapsedMS:   cum,
			RSDPercent:  s.RSD() * 100,
			Uncertain:   s.UncertainRows,
			FractionPct: s.FractionProcessed * 100,
		}
		res.Points = append(res.Points, p)
		if res.FirstAnswerMS == 0 {
			res.FirstAnswerMS = cum
		}
		if res.TimeTo2PctMS < 0 && p.RSDPercent <= 2 {
			res.TimeTo2PctMS = cum
		}
	}
	res.TotalOnlineMS = cum
	if batchMS > 0 {
		res.FirstAnswerPct = res.FirstAnswerMS / batchMS * 100
		res.OverheadPct = (res.TotalOnlineMS - batchMS) / batchMS * 100
		if res.TimeTo2PctMS > 0 {
			res.SpeedupAt2PctRSD = batchMS / res.TimeTo2PctMS
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Figure 3(b): per-batch query-time ratio CDM / G-OLA over the first 10
// mini-batches for C1, C2, C3, Q11, Q17, Q18, Q20.
// ---------------------------------------------------------------------

// Fig3bSeries is one query's curve. Besides the per-batch times it
// carries the work behind them, which repeats bit-for-bit under a seed:
// the root block's tuples touched per batch. CDM's (CdmRows) is the new
// mini-batch when it maintains the root incrementally and the whole
// prefix when it recomputes it; G-OLA's (GolaRows, from engine Metrics)
// is the new mini-batch (plus any replayed prefix) and the uncertain
// cache it re-examined.
type Fig3bSeries struct {
	Query    string
	GolaMS   []float64
	CdmMS    []float64
	Ratio    []float64
	GolaRows []int64
	CdmRows  []int64
}

// Fig3bQueries lists the queries Figure 3(b) plots.
var Fig3bQueries = []string{"C1", "C2", "C3", "Q11", "Q17", "Q18", "Q20"}

// Figure3b runs the experiment. Like the paper, it measures the first
// cfg.Batches mini-batches of a much longer run (the paper uses 1 GB
// batches over 100 GB, i.e. a window of 10 out of k = 100), so
// completion effects never enter the window.
func Figure3b(cfg Config) ([]Fig3bSeries, error) {
	cfg = cfg.WithDefaults()
	window := cfg.Batches
	total := window * 5 // the window covers the first 20% of the data
	var out []Fig3bSeries
	for _, name := range Fig3bQueries {
		wq, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown query %s", name)
		}
		cat := catalogFor(wq, cfg)
		s := Fig3bSeries{Query: name}

		qg, err := plan.Compile(wq.SQL, cat)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", name, err)
		}
		eng, err := core.New(qg, cat, core.Options{
			Batches: total, Trials: cfg.Trials, Seed: cfg.EngineSeed(),
		})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		for i := 0; i < window; i++ {
			before := eng.Metrics()
			t0 := time.Now()
			if _, err := eng.Step(); err != nil {
				return nil, err
			}
			s.GolaMS = append(s.GolaMS, ms(time.Since(t0)))
			rows := eng.Metrics().RowsProcessed - before.RowsProcessed
			if n := len(before.UncertainPerBatch); n > 0 {
				rows += int64(before.UncertainPerBatch[n-1])
			}
			s.GolaRows = append(s.GolaRows, rows)
		}

		qc, err := plan.Compile(wq.SQL, cat)
		if err != nil {
			return nil, err
		}
		cdm, err := baseline.NewCDM(qc, cat, total)
		if err != nil {
			return nil, err
		}
		for i := 0; i < window; i++ {
			t0 := time.Now()
			u, err := cdm.Step()
			if err != nil {
				return nil, err
			}
			s.CdmMS = append(s.CdmMS, ms(time.Since(t0)))
			s.CdmRows = append(s.CdmRows, u.RootRows)
		}

		for i := range s.GolaMS {
			g := s.GolaMS[i]
			if g <= 0 {
				g = 0.001
			}
			s.Ratio = append(s.Ratio, s.CdmMS[i]/g)
		}
		out = append(out, s)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// T2 (§3.2/§5 prose): uncertain sets are very small in practice.
// ---------------------------------------------------------------------

// T2Row is one query's uncertain-set profile.
type T2Row struct {
	Query        string
	PerBatch     []int
	MaxUncertain int
	MaxPctOfSeen float64
	Final        int
	Recomputes   int
}

// Table2 profiles the uncertain sets of every suite query.
func Table2(cfg Config) ([]T2Row, error) {
	cfg = cfg.WithDefaults()
	var out []T2Row
	for _, wq := range workload.Suite() {
		cat := catalogFor(wq, cfg)
		q, err := plan.Compile(wq.SQL, cat)
		if err != nil {
			return nil, err
		}
		eng, err := core.New(q, cat, core.Options{
			Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.EngineSeed(),
		})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		row := T2Row{Query: wq.Name}
		rowsPerBatch := cfg.Rows / cfg.Batches
		for !eng.Done() {
			s, err := eng.Step()
			if err != nil {
				return nil, err
			}
			row.PerBatch = append(row.PerBatch, s.UncertainRows)
			if s.UncertainRows > row.MaxUncertain {
				row.MaxUncertain = s.UncertainRows
			}
			seen := rowsPerBatch * s.Batch
			if seen > 0 {
				pct := float64(s.UncertainRows) / float64(seen) * 100
				if pct > row.MaxPctOfSeen {
					row.MaxPctOfSeen = pct
				}
			}
			row.Final = s.UncertainRows
			row.Recomputes = s.Recomputes
		}
		out = append(out, row)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// ---------------------------------------------------------------------
// Rendering helpers shared by flbench.
// ---------------------------------------------------------------------

// FormatFig3a renders the Figure 3(a) series as an aligned text table.
func FormatFig3a(r *Fig3aResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(a): RSD vs time, %s (batch engine: %.1f ms)\n", r.Query, r.BatchEngineMS)
	fmt.Fprintf(&b, "%6s %12s %10s %12s %10s\n", "batch", "elapsed ms", "rsd %", "fraction %", "uncertain")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %12.1f %10.3f %12.1f %10d\n",
			p.Batch, p.ElapsedMS, p.RSDPercent, p.FractionPct, p.Uncertain)
	}
	fmt.Fprintf(&b, "first answer: %.1f ms (%.1f%% of batch time)\n", r.FirstAnswerMS, r.FirstAnswerPct)
	fmt.Fprintf(&b, "total online: %.1f ms (overhead %.0f%% vs batch)\n", r.TotalOnlineMS, r.OverheadPct)
	if len(r.Points) > 0 {
		fmt.Fprintf(&b, "mean refresh: %.1f ms per snapshot\n", r.TotalOnlineMS/float64(len(r.Points)))
	}
	if r.TimeTo2PctMS >= 0 {
		fmt.Fprintf(&b, "time to 2%% RSD: %.1f ms (%.1fx faster than batch)\n",
			r.TimeTo2PctMS, r.SpeedupAt2PctRSD)
	} else {
		fmt.Fprintf(&b, "2%% RSD not reached within %d batches\n", len(r.Points))
	}
	return b.String()
}

// FormatFig3b renders the Figure 3(b) ratios, then the root tuples
// each engine touched per batch.
func FormatFig3b(series []Fig3bSeries) string {
	var b strings.Builder
	fig3bTable(&b, "Figure 3(b): per-batch time ratio CDM / G-OLA", series,
		func(s Fig3bSeries, i int) string { return fmt.Sprintf("%.2f", s.Ratio[i]) })
	fig3bTable(&b, "root tuples touched per batch, G-OLA (new batch + uncertain cache)", series,
		func(s Fig3bSeries, i int) string { return fmt.Sprint(s.GolaRows[i]) })
	fig3bTable(&b, "root tuples touched per batch, CDM (new batch, or the prefix when recomputed)", series,
		func(s Fig3bSeries, i int) string { return fmt.Sprint(s.CdmRows[i]) })
	return b.String()
}

// fig3bTable writes one batch × query table of cell(s, batch index).
func fig3bTable(b *strings.Builder, title string, series []Fig3bSeries, cell func(Fig3bSeries, int) string) {
	b.WriteString(title + "\n")
	fmt.Fprintf(b, "%6s", "batch")
	for _, s := range series {
		fmt.Fprintf(b, " %8s", s.Query)
	}
	b.WriteString("\n")
	n := 0
	for _, s := range series {
		n = max(n, len(s.Ratio))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "%6d", i+1)
		for _, s := range series {
			v := "-"
			if i < len(s.Ratio) {
				v = cell(s, i)
			}
			fmt.Fprintf(b, " %8s", v)
		}
		b.WriteString("\n")
	}
}

// FormatT2 renders the uncertain-set profile.
func FormatT2(rows []T2Row) string {
	var b strings.Builder
	b.WriteString("T2: uncertain-set sizes per query\n")
	fmt.Fprintf(&b, "%6s %12s %14s %8s %10s\n", "query", "max", "max % seen", "final", "recomputes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6s %12d %14.2f %8d %10d\n",
			r.Query, r.MaxUncertain, r.MaxPctOfSeen, r.Final, r.Recomputes)
	}
	return b.String()
}

// AsciiChart renders the Figure 3(a) refinement curve as a terminal
// plot (RSD% on the y axis, elapsed time on the x axis), echoing the
// dashboards of the paper's demo.
func AsciiChart(r *Fig3aResult, width, height int) string {
	if len(r.Points) == 0 || width < 16 || height < 4 {
		return ""
	}
	// A point without an error estimate (RSD +Inf) has no place on the
	// y axis: it is skipped, or it would scale every other point to 0.
	maxRSD := 0.0
	maxT := r.Points[len(r.Points)-1].ElapsedMS
	for _, p := range r.Points {
		if p.RSDPercent > maxRSD && !math.IsInf(p.RSDPercent, 0) {
			maxRSD = p.RSDPercent
		}
	}
	if maxRSD == 0 || maxT == 0 {
		return ""
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range r.Points {
		if math.IsInf(p.RSDPercent, 0) {
			continue
		}
		x := int(p.ElapsedMS / maxT * float64(width-1))
		y := height - 1 - int(p.RSDPercent/maxRSD*float64(height-1))
		if x >= 0 && x < width && y >= 0 && y < height {
			grid[y][x] = '*'
		}
	}
	// vertical bar where the batch engine finishes (if on-scale)
	if r.BatchEngineMS <= maxT {
		x := int(r.BatchEngineMS / maxT * float64(width-1))
		for y := range grid {
			if grid[y][x] == ' ' {
				grid[y][x] = '|'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "RSD%% (max %.2f)\n", maxRSD)
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "0%s%.0f ms ('|' = batch engine done)\n",
		strings.Repeat(" ", width-18), maxT)
	return b.String()
}
