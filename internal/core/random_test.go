package core

import (
	"fmt"
	"math"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// TestRandomizedQueryEquivalence generates a battery of randomized
// nested-aggregate queries and checks, for each, that the G-OLA final
// snapshot equals the exact batch answer. This is the engine's core
// soundness property: whatever the thresholds, aggregate mixes, nesting
// or grouping, finishing the scan must yield the exact result. A second
// generator varies two things the first leaves fixed: the subquery may
// be correlated on country (a per-group threshold), and the inner
// aggregate's column may be NULL for a random subset of countries in
// the early rows, so those groups' estimates start with no evidence.
func TestRandomizedQueryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized battery")
	}
	rng := bootstrap.NewRNG(0xFACADE)
	vary := bootstrap.NewRNG(0x5EED)
	aggs := []string{"AVG", "SUM", "COUNT", "MIN", "MAX", "STDDEV"}
	cols := []string{"buffer_time", "play_time"}
	cmps := []string{">", "<", ">=", "<="}

	for trial := 0; trial < 60; trial++ {
		cat := synthCatalog(1500+rng.Intn(2000), 30, uint64(trial)+100)

		innerAgg := aggs[rng.Intn(len(aggs))]
		innerCol := cols[rng.Intn(len(cols))]
		outerCol := cols[rng.Intn(len(cols))]
		cmp := cmps[rng.Intn(len(cmps))]
		factor := 0.5 + rng.Float64()*1.5
		outAgg1 := aggs[rng.Intn(len(aggs))]
		outAgg2 := aggs[rng.Intn(len(aggs))]

		grouped := rng.Intn(2) == 0
		groupBy := ""
		groupSel := ""
		keyCols := 0
		if grouped {
			groupBy = "GROUP BY country"
			groupSel = "country, "
			keyCols = 1
		}
		correlate := ""
		if vary.Intn(2) == 0 {
			correlate = "WHERE i.country = o.country"
		}
		if vary.Intn(2) == 0 {
			nullEarly(cat, innerCol, vary)
		}
		sql := fmt.Sprintf(
			`SELECT %s%s(play_time), %s(buffer_time) FROM sessions o
			 WHERE %s %s (SELECT %.4f * %s(%s) FROM sessions i %s) %s`,
			groupSel, outAgg1, outAgg2, outerCol, cmp, factor, innerAgg, innerCol, correlate, groupBy)

		q, err := plan.Compile(sql, cat)
		if err != nil {
			t.Fatalf("trial %d: compile %s: %v", trial, sql, err)
		}
		exact, err := exec.Run(q, cat)
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		q2, _ := plan.Compile(sql, cat)
		eng, err := New(q2, cat, Options{
			Batches: 4 + rng.Intn(8),
			Trials:  10 + rng.Intn(20),
			Seed:    uint64(trial) + 1,
		})
		if err != nil {
			t.Fatalf("trial %d: engine: %v", trial, err)
		}
		final, err := eng.Run(nil)
		if err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		got := final.ValueRows()
		if len(got) != len(exact.Rows) {
			t.Fatalf("trial %d (%s): rows %d vs %d", trial, sql, len(got), len(exact.Rows))
		}
		index := map[string]types.Row{}
		for _, r := range exact.Rows {
			index[r.KeyString(seqCols(keyCols))] = r
		}
		for _, g := range got {
			w, ok := index[g.KeyString(seqCols(keyCols))]
			if !ok {
				t.Fatalf("trial %d (%s): unexpected group %v", trial, sql, g)
			}
			for c := keyCols; c < len(g); c++ {
				gf, gok := g[c].AsFloat()
				wf, wok := w[c].AsFloat()
				if gok != wok {
					t.Fatalf("trial %d (%s): col %d: %v vs %v", trial, sql, c, g[c], w[c])
				}
				if gok && math.Abs(gf-wf) > 1e-6*(1+math.Abs(wf)) {
					t.Fatalf("trial %d (%s): col %d: got %v want %v (recomputes=%d)",
						trial, sql, c, gf, wf, final.Recomputes)
				}
			}
		}
	}
}

// nullEarly sets column col of the sessions table to NULL in the first
// 1/12 to 1/4 of its rows, for each country with probability 1/2.
func nullEarly(cat *storage.Catalog, col string, rng *bootstrap.RNG) {
	src, _ := cat.Get("sessions")
	sch := src.Schema()
	c, country := sch.ColumnIndex(col), sch.ColumnIndex("country")
	nulled := map[string]bool{}
	for _, k := range []string{"US", "DE", "FR", "BR", "IN"} {
		nulled[k] = rng.Intn(2) == 0
	}
	cut := src.NumRows() * (1 + rng.Intn(3)) / 12
	rows := make([]types.Row, src.NumRows())
	for i, r := range src.Rows() {
		if i < cut && nulled[r[country].Str()] {
			r = r.Clone()
			r[c] = types.Null
		}
		rows[i] = r
	}
	cat.Put(storage.FromRows("sessions", sch, rows))
}

func seqCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRandomizedMonotoneEquivalence does the same for monotone queries
// (no nesting) across random aggregate/grouping mixes — exercising the
// plain incremental path and extensive-aggregate scaling.
func TestRandomizedMonotoneEquivalence(t *testing.T) {
	rng := bootstrap.NewRNG(0xBEEF)
	aggs := []string{"AVG", "SUM", "COUNT", "MIN", "MAX"}
	for trial := 0; trial < 15; trial++ {
		cat := synthCatalog(1000+rng.Intn(1500), 20, uint64(trial)+500)
		a1 := aggs[rng.Intn(len(aggs))]
		a2 := aggs[rng.Intn(len(aggs))]
		thr := rng.Float64() * 100
		sql := fmt.Sprintf(
			`SELECT country, %s(play_time), %s(buffer_time) FROM sessions
			 WHERE buffer_time > %.3f GROUP BY country`, a1, a2, thr)
		q, err := plan.Compile(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := exec.Run(q, cat)
		q2, _ := plan.Compile(sql, cat)
		eng, err := New(q2, cat, Options{Batches: 5, Trials: 10, Seed: uint64(trial) + 7})
		if err != nil {
			t.Fatal(err)
		}
		final, err := eng.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := final.ValueRows()
		if len(got) != len(exact.Rows) {
			t.Fatalf("trial %d: rows %d vs %d", trial, len(got), len(exact.Rows))
		}
		index := map[string]types.Row{}
		for _, r := range exact.Rows {
			index[r.KeyString([]int{0})] = r
		}
		for _, g := range got {
			w := index[g.KeyString([]int{0})]
			if w == nil {
				t.Fatalf("trial %d: missing group %v", trial, g[0])
			}
			for c := 1; c < len(g); c++ {
				gf, _ := g[c].AsFloat()
				wf, _ := w[c].AsFloat()
				if math.Abs(gf-wf) > 1e-9*(1+math.Abs(wf)) {
					t.Fatalf("trial %d col %d: %v vs %v", trial, c, gf, wf)
				}
			}
		}
	}
}
