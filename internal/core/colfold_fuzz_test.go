package core

import (
	"fmt"
	"strings"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// FuzzColumnarFold holds the columnar fold kernel (colFoldRuns) to the
// row path on generated shapes: up to five COUNT/SUM/AVG aggregates over
// three measure columns, constants and computed arguments, scalar or
// grouped, with or without a dim join that drops some fact keys and fans
// others out twice, over a table whose columns carry independent NULL
// patterns. Every snapshot of the columnar run must be bit-identical to
// the Seams.RowPath run at P 1 and 2. The measures are integer-valued
// and the arguments avoid division, so every sum is exact whatever its
// association.
func FuzzColumnarFold(f *testing.F) {
	f.Add(uint64(1), []byte{0, 4, 8}, false)
	f.Add(uint64(2), []byte{18, 5, 10, 13}, false)
	f.Add(uint64(3), []byte{1, 7, 11, 14, 23}, true)
	f.Add(uint64(4), []byte{20, 2}, true)
	f.Add(uint64(5), []byte{9, 12, 15}, false)
	f.Fuzz(func(t *testing.T, seed uint64, spec []byte, dims bool) {
		sql := foldFuzzSQL(seed, spec, dims)
		cat := foldFuzzCatalog(seed)
		opts := func(p int, rowPath bool) Options {
			o := WithSeams(Options{Batches: 3, Trials: 6, Seed: seed, BootstrapSampleCap: -1, Parallelism: p},
				Seams{PartRows: 128, RowPath: rowPath})
			if seed&8 != 0 {
				o.BootstrapSampleCap = 500
			}
			return o
		}
		for _, p := range []int{1, 2} {
			ref := runSnapshots(t, cat, sql, opts(p, true))
			got, eng := runEngine(t, cat, sql, opts(p, false))
			if v := eng.runners[len(eng.runners)-1].colPl.verdict(); v != "columnar" {
				t.Fatalf("%s: verdict %q, want columnar", sql, v)
			}
			compareSnapshots(t, fmt.Sprintf("%s P=%d", sql, p), ref, got)
		}
	})
}

// foldFuzzArgs are the aggregate arguments a spec byte picks from:
// three measures, computed columns and two constants ("*" is COUNT(*);
// SUM and AVG read it as 1).
var foldFuzzArgs = []string{"x", "y", "z", "x * y", "y + z", "-x", "*", "2.5"}

// foldFuzzSQL renders spec as a query: each of its first five bytes is
// one aggregate (function b%3 over argument b/3), seed's low bits pick
// the grouping.
func foldFuzzSQL(seed uint64, spec []byte, dims bool) string {
	if len(spec) == 0 {
		spec = []byte{0}
	}
	if len(spec) > 5 {
		spec = spec[:5]
	}
	var items []string
	for _, b := range spec {
		fn := []string{"COUNT", "SUM", "AVG"}[b%3]
		arg := foldFuzzArgs[int(b/3)%len(foldFuzzArgs)]
		if arg == "*" && fn != "COUNT" {
			arg = "1"
		}
		items = append(items, fn+"("+arg+")")
	}
	from := "fz"
	if dims {
		from = "fz f JOIN fzd d ON f.k = d.dk"
	}
	group := ""
	switch {
	case seed&3 == 1:
		group = "g"
	case seed&3 == 2 && dims:
		group = "c"
	case seed&3 == 3:
		group = "g"
		if dims {
			group = "c, g"
		}
	}
	if group == "" {
		return "SELECT " + strings.Join(items, ", ") + " FROM " + from
	}
	return "SELECT " + group + ", " + strings.Join(items, ", ") + " FROM " + from + " GROUP BY " + group
}

// foldFuzzCatalog builds fz(g, k, x, y, z) — 1200 rows, one to three
// groups, so groups pass momentMin by the last batch — whose measures
// each go NULL at their own seed-drawn rate (possibly never), and
// fzd(dk, c), which has no row for k = 5 and two for k = 1.
func foldFuzzCatalog(seed uint64) *storage.Catalog {
	rng := bootstrap.NewRNG(seed)
	groups := 1 + rng.Intn(3)
	var every [3]int
	for c := range every {
		every[c] = rng.Intn(9) // 0: no NULLs
	}
	measure := func(c int, float bool) types.Value {
		if every[c] > 0 && rng.Intn(every[c]+1) == 0 {
			return types.Null
		}
		v := rng.Intn(100)
		if float {
			return types.NewFloat(float64(v))
		}
		return types.NewInt(int64(v))
	}
	cat := storage.NewCatalog()
	t := storage.NewTable("fz", types.NewSchema(
		"g", types.KindInt, "k", types.KindInt,
		"x", types.KindFloat, "y", types.KindInt, "z", types.KindFloat))
	for i := 0; i < 1200; i++ {
		_ = t.Append(types.Row{
			types.NewInt(int64(rng.Intn(groups))),
			types.NewInt(int64(rng.Intn(6))),
			measure(0, true), measure(1, false), measure(2, true),
		})
	}
	cat.Put(t)
	d := storage.NewTable("fzd", types.NewSchema("dk", types.KindInt, "c", types.KindString))
	for k := 0; k < 5; k++ {
		_ = d.Append(types.Row{types.NewInt(int64(k)), types.NewString([]string{"p", "q"}[k%2])})
	}
	_ = d.Append(types.Row{types.NewInt(1), types.NewString("dup")})
	cat.Put(d)
	return cat
}
