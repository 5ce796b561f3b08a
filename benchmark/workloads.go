package main

import (
	"fmt"
	"math"
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/core"
	"fluodb/internal/storage"
	"fluodb/internal/types"
	suite "fluodb/internal/workload"
)

// workload is one set of inputs: a generated fact table, one SQL text and
// the engine options it runs under. BENCHMARK.json says in a line why each
// exists; README.md says what it loads and what it bypasses.
type workload struct {
	name string
	// rows and parts size the table at full scale; tinyRows/tinyParts are the
	// -scale tiny preset the tests use.
	rows, parts         int
	tinyRows, tinyParts int
	// gen builds the unshuffled fact table.
	gen func(rows, parts int, seed uint64) *storage.Table
	sql func(parts int) string
	// opt carries the options that differ between workloads; Batches, Trials
	// and Seed are filled per op.
	opt core.Options
	// eps is the RSD target of time_to_eps_ms; tinyEps is the looser one a
	// tiny table can meet.
	eps, tinyEps float64
}

const (
	batches = 20
	trials  = 100
	// datasetsPerRun seed-derived tables are set up, measured and dropped in
	// turn within one run: five set-ups give setup_s a median, and pooling
	// ops over five tables damps what depends on the data (the batch at
	// which eps is reached, the recompute count) between seeds.
	datasetsPerRun = 5
)

func suiteSQL(name string) func(int) string {
	q, ok := suite.ByName(name)
	if !ok {
		panic("benchmark: suite query " + name + " is gone")
	}
	return func(int) string { return q.SQL }
}

func genSessions(rows, _ int, seed uint64) *storage.Table {
	return suite.GenSessions(rows, seed)
}

func genLineitem(rows, parts int, seed uint64) *storage.Table {
	return suite.GenLineitem(rows, parts, seed)
}

// genPartSupp gives every part rows/parts suppliers, so the number of groups
// and the rows per group are set independently of each other.
func genPartSupp(rows, parts int, seed uint64) *storage.Table {
	return suite.GenPartSupp(parts, rows/parts, seed)
}

// q11SQL is the suite's Q11 with a threshold that scales with the number of
// parts: the suite's constant 0.006 exceeds every part's share of the total
// once there are more than ~170 parts, and the query then returns no rows.
// 1.1/parts keeps about one part in eight above the line at any scale.
func q11SQL(parts int) string {
	return fmt.Sprintf(`SELECT partkey, SUM(supplycost * availqty) AS value
FROM partsupp
GROUP BY partkey
HAVING SUM(supplycost * availqty) > (SELECT SUM(supplycost * availqty) * %.10g FROM partsupp)`,
		1.1/float64(parts))
}

var workloads = []workload{
	{
		name: "sbi_fullboot",
		rows: 400000, tinyRows: 8000,
		gen: genSessions, sql: suiteSQL("SBI"),
		opt: core.Options{BootstrapSampleCap: -1, Parallelism: 1},
		eps: 0.0015, tinyEps: 0.01,
	},
	{
		name: "sbi_fullboot_p2",
		rows: 400000, tinyRows: 8000,
		gen: genSessions, sql: suiteSQL("SBI"),
		opt: core.Options{BootstrapSampleCap: -1, Parallelism: 2},
		eps: 0.0015, tinyEps: 0.01,
	},
	{
		name: "q11_groups",
		rows: 300000, parts: 3000, tinyRows: 10000, tinyParts: 100,
		gen: genPartSupp, sql: q11SQL,
		opt: core.Options{Parallelism: 1},
		eps: 0.12, tinyEps: 0.2,
	},
	{
		name: "q17_correlated",
		rows: 120000, parts: 810, tinyRows: 9000, tinyParts: 60,
		gen: genLineitem, sql: suiteSQL("Q17"),
		// MinGroupSupport 30: at the default of 2 a part seen twice with
		// equal quantities commits a zero-width range, and whether that
		// costs one, two or three full replays depends on the data seed
		// (README.md has the measurements); no bound could gate that.
		opt: core.Options{Parallelism: 1, MinGroupSupport: 30},
		eps: 0.01, tinyEps: 0.05,
	},
	{
		name: "q18_membership",
		rows: 20000, parts: 143, tinyRows: 1000, tinyParts: 10,
		gen: genLineitem, sql: suiteSQL("Q18"),
		opt: core.Options{Parallelism: 1},
		// Mean RSD over hundreds of four-row groups stays near 45% to the
		// last batch, so no useful target exists; 50% is met by the first
		// snapshot and time_to_eps_ms follows first_answer_ms here.
		eps: 0.5, tinyEps: 0.5,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// size returns the table size for the scale.
func (w *workload) size(tiny bool) (rows, parts int) {
	if tiny {
		return w.tinyRows, w.tinyParts
	}
	return w.rows, w.parts
}

// derive mixes a seed with two indexes into a non-zero seed (the engine
// reads Seed 0 as "use the default").
func derive(seed, a, b uint64) uint64 {
	x := bootstrap.Mix64(bootstrap.Mix64(bootstrap.Mix64(seed+1)+a) + b)
	if x == 0 {
		x = 1
	}
	return x
}

// dataset is one generated, shuffled, loaded and encoded table.
type dataset struct {
	seed     uint64
	cat      *storage.Catalog
	table    *storage.Table
	sql      string
	checksum uint64
	setup    time.Duration
}

// setup generates table number idx of a run, shuffles it, loads it into a
// fresh catalog and builds its columnar encoding: everything a user pays
// before the first query can start. The spans are the per-layer split.
func (w *workload) setup(seed uint64, idx int, tiny bool, rec *recorder) *dataset {
	rows, parts := w.size(tiny)
	ds := &dataset{seed: derive(seed, uint64(idx), 0), sql: w.sql(parts)}
	t0 := time.Now()
	all := rec.begin("setup")
	sp := rec.begin("workload.generate")
	src := w.gen(rows, parts, ds.seed)
	rec.end(sp)
	sp = rec.begin("storage.shuffle")
	ds.table = src.Shuffled(int64(ds.seed >> 1))
	rec.end(sp)
	ds.cat = storage.NewCatalog()
	ds.cat.Put(ds.table)
	sp = rec.begin("colstore.encode")
	ds.table.Columnar()
	rec.end(sp)
	rec.end(all)
	ds.setup = time.Since(t0)
	ds.checksum = checksum(ds.table)
	return ds
}

// checksum folds every cell of the table, in order, into 64 bits.
func checksum(t *storage.Table) uint64 {
	h := uint64(len(t.Rows()))
	for _, row := range t.Rows() {
		for _, v := range row {
			var x uint64
			switch v.Kind() {
			case types.KindInt:
				x = uint64(v.Int())
			case types.KindFloat:
				x = math.Float64bits(v.Float())
			case types.KindString:
				x = 14695981039346656037
				for _, c := range []byte(v.Str()) {
					x = (x ^ uint64(c)) * 1099511628211
				}
			case types.KindBool:
				if v.Bool() {
					x = 1
				}
			}
			h = bootstrap.Mix64(h ^ x + uint64(v.Kind()))
		}
	}
	return h
}
