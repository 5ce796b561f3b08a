package core

import (
	"fmt"
	"runtime"

	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// The shard coordinator (DESIGN.md §17). With Options.Shards = N ≥ 1
// the engine stops folding mini-batches itself: each (block, batch) is
// split into N contiguous row slices by the runtime's one splitter
// (storage.SliceRanges) and dispatched to N shard engines over the
// coordinator's own worker pool, whose stages merge back in shard order
// through the runner's one mergeStage. The engine remains the
// single authority for all cross-batch state — bindings, runner tables,
// the uncertain cache, snapshots, checkpoints — so shards are
// stateless compute and the coordinator's recovery ladder is sound:
//
//	rung 1  re-dispatch the failed slice to a replacement shard
//	        (incarnation+1) under the runtime's one containment ladder
//	        (workerPool.scatter) — "re-step from the shard's last
//	        committed batch", which for stateless shards is exactly
//	        redoing the slice;
//	rung 2  respawn the whole topology under a fresh incarnation epoch
//	        and restore the engine from its auto-kept checkpoint of the
//	        last committed batch (engine.go shardRestore);
//	rung 3  surface QueryError{Kind: shard-lost}.
//
// Determinism: merging contiguous slices in slice order reproduces the
// serial group insertion order for any N (a group first appearing in a
// later slice cannot precede one first appearing in an earlier slice),
// and every per-tuple statistic is a counter-based hash of the global
// row index — so the N-shard trajectory matches the single-engine run
// for any N and any per-shard parallelism, pinned by the exact-fixture
// bit-identity matrix in shard_test.go.

// maxShardRestores bounds recovery rung 2 (checkpoint restores per
// Step) before the coordinator declares the shard lost.
const maxShardRestores = 2

// shardDown reports a slice whose shard (and every replacement tried by
// rung 1) failed; StepContext escalates it to a checkpoint restore.
type shardDown struct {
	shard int
	batch int
	cause error
}

func (s *shardDown) Error() string {
	return fmt.Sprintf("core: shard %d down at batch %d: %v", s.shard, s.batch, s.cause)
}

func (s *shardDown) Unwrap() error { return s.cause }

// shardCoordinator owns the shard topology of one engine.
type shardCoordinator struct {
	eng    *Engine
	n      int
	shards []ShardEngine
	incs   []int // next/current incarnation per slot (monotone)
	// pool dispatches slot i's Step on worker i; nil until the first
	// feed and after stop.
	pool *workerPool
	// Per-slot progress for Snapshot.Shards and the dashboard: rows
	// dispatched (across all blocks) and completed dispatches.
	rows  []int64
	steps []int64
}

func newShardCoordinator(e *Engine, n int) *shardCoordinator {
	return &shardCoordinator{eng: e, n: n,
		shards: make([]ShardEngine, n), incs: make([]int, n),
		rows: make([]int64, n), steps: make([]int64, n)}
}

// ensure spawns the topology lazily (first feed) and arms the finalizer
// backstop, mirroring ensurePool.
func (c *shardCoordinator) ensure() {
	if c.pool != nil || c.eng.closed {
		return
	}
	c.pool = newWorkerPool(c.n)
	runtime.SetFinalizer(c.eng, (*Engine).Close)
	for i := range c.shards {
		c.shards[i] = newLocalShard(i, c.incs[i], c.eng.opt.Chaos)
	}
}

// respawn replaces slot i with a fresh incarnation (rung 1). Close is
// safe whether the old shard died or merely failed.
func (c *shardCoordinator) respawn(i int) {
	if c.shards[i] != nil {
		c.shards[i].Close()
	}
	c.incs[i]++
	c.shards[i] = newLocalShard(i, c.incs[i], c.eng.opt.Chaos)
	c.eng.metrics.ShardRespawns++
}

// respawnAll replaces the whole topology under a fresh incarnation
// epoch (rung 2): every slot advances, so the restored replay draws
// fresh chaos variates at every site.
func (c *shardCoordinator) respawnAll() {
	for i := range c.shards {
		if c.shards[i] != nil {
			c.shards[i].Close()
		}
		c.incs[i]++
		c.shards[i] = newLocalShard(i, c.incs[i], c.eng.opt.Chaos)
	}
}

// stop shuts every shard down (engine Close / finalizer path).
func (c *shardCoordinator) stop() {
	for i, s := range c.shards {
		if s != nil {
			s.Close()
			c.shards[i] = nil
		}
	}
	if c.pool != nil {
		c.pool.stop()
		c.pool = nil
	}
}

// feedBatch dispatches one (block, batch) across the shard topology and
// merges the deltas, driving recovery rung 1 for any failed slice. A
// returned *shardDown means rung 1 is exhausted for that slice and
// nothing was merged — the runner's state is exactly as before the
// call, so a checkpoint restore can redo the whole batch.
func (c *shardCoordinator) feedBatch(r *blockRunner, rows []types.Row, baseIdx int, ts *tableStream) error {
	e := c.eng
	if len(rows) == 0 {
		return nil
	}
	// Plan/encoding acquisition stays on the controller so shards share
	// the columnar state read-only, exactly like pool workers.
	r.ensureColPlan()
	r.revalidateColPlan()
	c.ensure()

	tasks := make([]ShardTask, c.n)
	deltas := make([]*ShardDelta, c.n)
	for i, rg := range storage.SliceRanges(len(rows), c.n) {
		tasks[i] = ShardTask{r: r, rows: rows[rg.Lo:rg.Hi], baseIdx: baseIdx + rg.Lo,
			ts: ts, workers: e.opt.Parallelism, thr: e.opt.ParallelThreshold}
	}
	// Rung 1 is scatter's redo: each failed slice is redone on
	// replacement shards with fresh incarnations (fresh chaos variates,
	// fresh stages), on this goroutine.
	failed, err := c.pool.scatter(c.n, e.opt.Seed, uint64(baseIdx), func(_ *workerCtx, i int) (err error) {
		deltas[i], err = c.shards[i].Step(&tasks[i])
		return err
	}, func(i, attempt int, _ error) (err error) {
		if attempt == 1 {
			e.metrics.ShardKills++
		}
		c.respawn(i)
		e.trace.Emit(Event{Kind: EvShardRespawn, Key: ts.name, Worker: i, Kept: attempt,
			Note: fmt.Sprintf("re-dispatching rows [%d,+%d) to incarnation %d",
				tasks[i].baseIdx, len(tasks[i].rows), c.incs[i])})
		deltas[i], err = c.shards[i].Step(&tasks[i])
		return err
	})
	if err != nil {
		return &shardDown{shard: failed, batch: e.batch, cause: err}
	}

	// Merge in (shard, sub-slice) order: contiguous slices in slice order
	// reproduce the serial group insertion order — and the worker-pool
	// order too, a shard's stages being a pool's one level down.
	for i, d := range deltas {
		for _, st := range d.stages {
			r.mergeStage(st)
		}
		c.rows[i] += int64(len(tasks[i].rows))
		c.steps[i]++
	}
	return nil
}

// progress reports per-slot shard state for Snapshot.Shards.
func (c *shardCoordinator) progress() []ShardStat {
	out := make([]ShardStat, c.n)
	for i := range out {
		out[i] = ShardStat{ID: i, Incarnation: c.incs[i],
			Rows: c.rows[i], Steps: c.steps[i]}
	}
	return out
}
