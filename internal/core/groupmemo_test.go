package core

import (
	"fmt"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/chaos"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// The columnar group memo (colScratch.bindMemo) lives as long as the
// group table it resolves into: a runner's memo resolves each distinct
// key once per query, a worker stage's once per batch (its table is
// recycled at every merge), and replay, a new encoding, checkpoint
// resume and the budget ladder's rung 1 restart or release it. The
// tests below count its misses (colScratch.memoMisses) on a fixture
// whose every batch, and every part of a batch, holds every group, and
// hold each invalidation bit-identical to the row path.

// memoGroups is the fixture's group count G.
const memoGroups = 50

// memoCatalog builds cyc(g INT, s STRING, x DOUBLE), whose row i is in
// group g = i mod G with s a function of g, so any run of G consecutive
// rows holds every group; and gdim(gkey INT, cat STRING), which covers
// every g.
func memoCatalog(n int) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("cyc", types.NewSchema(
		"g", types.KindInt, "s", types.KindString, "x", types.KindFloat))
	names := []string{"ab", "cd", "ef", "gh", "ij"}
	for i := 0; i < n; i++ {
		g := i % memoGroups
		_ = t.Append(types.Row{
			types.NewInt(int64(g)),
			types.NewString(names[g%len(names)]),
			types.NewFloat(float64(i % 97)),
		})
	}
	cat.Put(t)
	d := storage.NewTable("gdim", types.NewSchema("gkey", types.KindInt, "cat", types.KindString))
	for g := 0; g < memoGroups; g++ {
		_ = d.Append(types.Row{types.NewInt(int64(g)), types.NewString(names[g%3])})
	}
	cat.Put(d)
	return cat
}

// memoQueries are one grouped block per memo shape: one column key and
// one argument source, a two-column key over two sources, and a dims
// block, whose memo key is the join column g.
var memoQueries = []struct{ name, sql, verdict string }{
	{"fused", `SELECT g, SUM(x), AVG(x) FROM cyc GROUP BY g`, "columnar"},
	{"generic", `SELECT g, s, COUNT(x), SUM(x), SUM(g) FROM cyc GROUP BY g, s`, "columnar"},
	{"dims", `SELECT cat, g, SUM(x) FROM cyc c JOIN gdim d ON c.g = d.gkey GROUP BY cat, g`, "columnar"},
}

const (
	memoBatches  = 6
	memoBatchLen = 1024
)

func memoOptions(p int, rowPath bool) Options {
	return WithSeams(Options{Batches: memoBatches, Trials: 16, Seed: 5, BootstrapSampleCap: -1,
		Parallelism: p}, Seams{PartRows: 128, RowPath: rowPath})
}

// newMemoEngine compiles sql over cat into an engine closed at cleanup.
func newMemoEngine(t *testing.T, cat *storage.Catalog, sql string, o Options) *Engine {
	t.Helper()
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestGroupMemoLifetime: at P 1 a grouped block's memo misses exactly
// once per group for the whole run (a per-sweep memo misses G times a
// batch); at P 2 every worker stage misses G times in every batch,
// because its table is recycled between batches, while the runner's
// memo, which no part folds into, never misses. Both runs are
// bit-identical to the row path.
func TestGroupMemoLifetime(t *testing.T) {
	cat := memoCatalog(memoBatches * memoBatchLen)
	for _, q := range memoQueries {
		t.Run(q.name, func(t *testing.T) {
			ref := runSnapshots(t, cat, q.sql, memoOptions(1, true))
			for _, p := range []int{1, 2} {
				eng := newMemoEngine(t, cat, q.sql, memoOptions(p, false))
				r := eng.runners[len(eng.runners)-1]
				if v := r.colPl.verdict(); v != q.verdict {
					t.Fatalf("verdict %q, want %q", v, q.verdict)
				}
				var got []*Snapshot
				for b := 1; b <= memoBatches; b++ {
					got = append(got, stepTo(t, eng, 1)...)
					stages := runnerStages(eng, r)
					if p == 1 {
						if n := r.cs.memoMisses; n != memoGroups {
							t.Fatalf("P=1 batch %d: %d memo misses, want %d (once per group per query)", b, n, memoGroups)
						}
						continue
					}
					if len(stages) != 1+p {
						t.Fatalf("P=2 batch %d: %d worker stages, want %d", b, len(stages)-1, p)
					}
					if n := r.cs.memoMisses; n != 0 {
						t.Fatalf("P=2 batch %d: the runner's memo missed %d times; no part folds into it", b, n)
					}
					for w, st := range stages[1:] {
						if n, want := st.cs.memoMisses, int64(b*memoGroups); n != want {
							t.Fatalf("P=2 batch %d worker %d: %d memo misses, want %d (once per group per batch)", b, w, n, want)
						}
					}
				}
				compareSnapshots(t, fmt.Sprintf("memo P=%d", p), ref, got)
			}
		})
	}
}

// TestGroupMemoInvalidation holds each event that ends a memo's
// lifetime bit-identical to the row path and checks the memo restarts
// (or, at rung 1, is released) there: a replay mid-run, a chaos
// segment-seal drop, a 1-byte memory budget, and a checkpoint resumed
// mid-run.
func TestGroupMemoInvalidation(t *testing.T) {
	// The replay runs under an uncertain predicate, whose cached rows
	// fold into the same table through reclassify; the other legs use
	// the one-block one-source query, so every segment-seal drop re-encodes
	// the table the root reads.
	const uncertainSQL = `SELECT g, SUM(x), AVG(x) FROM cyc
		WHERE x < (SELECT 0.9 * AVG(x) FROM cyc) GROUP BY g`
	groupSQL := memoQueries[0].sql
	n := memoBatches * memoBatchLen
	const mid = 3

	t.Run("replay", func(t *testing.T) {
		cat := memoCatalog(n)
		ref := runSnapshots(t, cat, uncertainSQL, memoOptions(1, true))
		eng := newMemoEngine(t, cat, uncertainSQL, memoOptions(1, false))
		r := eng.runners[len(eng.runners)-1]
		got := stepTo(t, eng, mid)
		if r.cs.memoMisses != memoGroups {
			t.Fatalf("%d memo misses before the replay, want %d", r.cs.memoMisses, memoGroups)
		}
		if err := eng.replayUpTo(eng.batch - 1); err != nil {
			t.Fatal(err)
		}
		if re := eng.snapshot(0); !sameCellRows(re.Rows, got[mid-1].Rows) {
			t.Fatal("snapshot after replay differs")
		}
		if r.cs.memoMisses != 2*memoGroups {
			t.Fatalf("%d memo misses after the replay, want %d: the replaced table's memo must restart",
				r.cs.memoMisses, 2*memoGroups)
		}
		got = append(got, finish(t, eng)...)
		if r.cs.memoMisses != 2*memoGroups {
			t.Fatalf("%d memo misses at the end, want %d", r.cs.memoMisses, 2*memoGroups)
		}
		compareSnapshots(t, "replay", ref, got)
	})

	t.Run("segseal", func(t *testing.T) {
		cat := memoCatalog(n)
		ref := runSnapshots(t, cat, groupSQL, memoOptions(1, true))
		cat = memoCatalog(n) // the drops below release this catalog's encoding
		inj := chaos.New(chaos.Config{Seed: 3, SegSealDropProb: 0.5})
		o := WithSeams(memoOptions(1, false), Seams{PartRows: 128, Chaos: inj})
		eng := newMemoEngine(t, cat, groupSQL, o)
		r := eng.runners[0]
		var got []*Snapshot
		want, restarts := int64(0), 0
		for b := 0; b < memoBatches; b++ {
			drops := inj.Counts()[chaos.KindSegSeal]
			got = append(got, stepTo(t, eng, 1)...)
			switch {
			case b == 0:
				want = memoGroups
			case inj.Counts()[chaos.KindSegSeal] != drops:
				want += memoGroups // a new encoding: every key misses once more
				restarts++
			}
			if r.cs.memoMisses != want {
				t.Fatalf("batch %d: %d memo misses, want %d", b+1, r.cs.memoMisses, want)
			}
		}
		if restarts == 0 {
			t.Fatal("no segment-seal drop after the first batch; the leg exercised nothing")
		}
		compareSnapshots(t, "segseal", ref, got)
	})

	t.Run("budget-rung1", func(t *testing.T) {
		cat := memoCatalog(n)
		ref := runSnapshots(t, cat, groupSQL, memoOptions(1, true))
		o := memoOptions(1, false)
		o.MaxMemoryBytes = 1
		eng := newMemoEngine(t, memoCatalog(n), groupSQL, o)
		r := eng.runners[0]
		got := stepTo(t, eng, 1)
		if eng.degradeRung < 1 {
			t.Fatalf("rung %d after a 1-byte budget's first batch, want ≥ 1", eng.degradeRung)
		}
		if r.cs.memoMisses != memoGroups || r.cs.sweeps == 0 {
			t.Fatalf("first batch: %d memo misses over %d sweeps, want %d over some", r.cs.memoMisses, r.cs.sweeps, memoGroups)
		}
		if r.cs.memoTab != nil || cap(r.cs.memoEntries) != 0 || r.cs.memo.MemBytes() != 0 {
			t.Fatal("rung 1 kept the group memo")
		}
		sweeps := r.cs.sweeps
		got = append(got, finish(t, eng)...)
		if r.cs.sweeps != sweeps || r.cs.memoMisses != memoGroups {
			t.Fatalf("after rung 1: %d more sweeps, %d more misses; the row path takes over",
				r.cs.sweeps-sweeps, r.cs.memoMisses-memoGroups)
		}
		compareSnapshots(t, "budget", ref, got)
	})

	t.Run("resume", func(t *testing.T) {
		cat := memoCatalog(n)
		ref := runSnapshots(t, cat, groupSQL, memoOptions(1, true))
		o := memoOptions(1, false)
		eng := newMemoEngine(t, cat, groupSQL, o)
		got := stepTo(t, eng, mid)
		ck, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.Compile(groupSQL, cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Resume(q, cat, o, ck)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(res.Close)
		r := res.runners[0]
		if r.cs.memoMisses != memoGroups {
			t.Fatalf("%d memo misses over the resumed prefix, want %d", r.cs.memoMisses, memoGroups)
		}
		got = append(got, finish(t, res)...)
		if r.cs.memoMisses != memoGroups {
			t.Fatalf("%d memo misses at the end of the resumed run, want %d", r.cs.memoMisses, memoGroups)
		}
		compareSnapshots(t, "resume", ref, got)
	})
}

// BenchmarkFoldColumnarGroupedBatches measures the grouped fold on
// q11's shape in ns/row: 3000 groups over 20 mini-batches of 15 000
// rows, each batch one feed of SUM(c * q) GROUP BY k through the fold
// kernel, with a fresh group table (a new query's) every 20 batches. A
// batch holds about 99% of the groups, so per-batch key resolution is
// what the memo's lifetime decides.
func BenchmarkFoldColumnarGroupedBatches(b *testing.B) {
	const (
		groups   = 3000
		batches  = 20
		batchLen = 15000
	)
	cat := storage.NewCatalog()
	t := storage.NewTable("ps", types.NewSchema("k", types.KindInt, "c", types.KindFloat, "q", types.KindInt))
	rng := bootstrap.NewRNG(11)
	for i := 0; i < batches*batchLen; i++ {
		_ = t.Append(types.Row{
			types.NewInt(int64(rng.Intn(groups))),
			types.NewFloat(float64(rng.Intn(100000)) / 100),
			types.NewInt(int64(1 + rng.Intn(9999))),
		})
	}
	cat.Put(t)
	q, err := plan.Compile(`SELECT k, SUM(c * q) FROM ps GROUP BY k`, cat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: batches, Trials: 100, Seed: 11, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	r, ts, te := eng.runners[0], eng.tables["ps"], eng.triEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for n, bi := 0, 0; n < b.N; n, bi = n+batchLen, (bi+1)%batches {
		if bi == 0 {
			r.reset()
		}
		r.feedBatchSerial(ts.batches[bi], ts.starts[bi], te)
	}
	b.StopTimer()
	if r.colPl.verdict() != "columnar" || r.cs.sweeps == 0 {
		b.Fatalf("verdict %q after %d sweeps: the columnar fold did not run", r.colPl.verdict(), r.cs.sweeps)
	}
}
