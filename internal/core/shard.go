package core

import (
	"fmt"

	"fluodb/internal/chaos"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Sharded execution (DESIGN.md §17). A shard engine is one partition
// executor behind the coordinator: it receives a contiguous slice of a
// mini-batch for one lineage block and folds it into its own stages
// (parallel.go), which the coordinator merges in shard order. Shards
// hold no cross-batch aggregate state of their own (the engine's runner
// tables stay authoritative; a merged stage is empty again), which is
// what makes a shard death recoverable: a replacement shard redoing the
// same slice from the same committed state produces the same stages.
//
// localShard is the in-process implementation: the engine's own
// partition → fold step one level down, over the shard's own stages and
// (for sub-slice parallelism) its own worker pool. It must not retain
// engine references between requests (the request carries them), so an
// abandoned engine stays finalizable and its Close backstop can shut
// the shard's workers down — the same discipline the worker pool
// follows (pool.go).

// ShardEngine is the execution interface between the coordinator and
// one shard. The local implementation runs in-process; process
// separation later means marshalling ShardTask slices and deltas over a
// transport behind this same interface.
type ShardEngine interface {
	// ID is the shard's slot in the coordinator's topology.
	ID() int
	// Incarnation distinguishes a replacement shard from the dead one it
	// replaced; chaos decisions key on it.
	Incarnation() int
	// Step folds one dispatched slice and returns its staging delta. A
	// non-nil error means the shard produced nothing usable (killed,
	// panicked); a killed shard must not accept further Steps.
	Step(t *ShardTask) (*ShardDelta, error)
	// Close shuts the shard down (idempotent; safe after death).
	Close()
}

// ShardTask is one dispatch unit: fold rows (a contiguous slice of one
// mini-batch, starting at global row index baseIdx) of runner r's fact
// table, with up to workers-way intra-shard parallelism.
type ShardTask struct {
	r       *blockRunner
	rows    []types.Row
	baseIdx int
	ts      *tableStream
	workers int
	thr     int
}

// ShardDelta is the staged result of one ShardTask: the shard's stages
// in sub-slice order, each drained by the runner's mergeStage. Merging
// contiguous sub-slices of contiguous slices in (shard, worker) order
// reproduces the global serial group order (see DESIGN.md §17).
type ShardDelta struct {
	stages []*stage
}

// localShard is an in-process ShardEngine. Step runs on the caller's
// goroutine (a coordinator pool worker, or the controller during a
// re-dispatch); own is the fold context of single-part slices, pool the
// lazily created workers of sub-sliced ones. It deliberately holds no
// *Engine — only the chaos injector (engine-independent) and its
// coordinates.
type localShard struct {
	id   int
	inc  int
	inj  *chaos.Injector
	dead bool
	own  workerCtx
	pool *workerPool
}

func newLocalShard(id, inc int, inj *chaos.Injector) *localShard {
	return &localShard{id: id, inc: inc, inj: inj}
}

func (s *localShard) ID() int          { return s.id }
func (s *localShard) Incarnation() int { return s.inc }

// Close stops the shard's workers; the shard accepts no further Steps.
func (s *localShard) Close() {
	s.dead = true
	if s.pool != nil {
		s.pool.stop()
		s.pool = nil
	}
}

// Step decides injected faults, then folds the task's slice — split
// across up to t.workers sub-slices by the engine's own clamp, splitter
// and containment ladder. A kill closes the shard: the coordinator must
// spawn a replacement. A panic anywhere in the fold that outlives the
// ladder is contained into an error: the coordinator treats it like a
// shard death and redoes the slice on a replacement.
func (s *localShard) Step(t *ShardTask) (delta *ShardDelta, err error) {
	if s.dead {
		return nil, fmt.Errorf("shard %d (incarnation %d): dead", s.id, s.inc)
	}
	r, e := t.r, t.r.eng
	if s.inj.ShardKill(t.ts.name, t.baseIdx, s.id, s.inc) {
		e.traceFault("shard-kill", t.ts.name, s.id,
			fmt.Sprintf("injected shard death (incarnation %d)", s.inc))
		s.Close()
		return nil, fmt.Errorf("shard %d (incarnation %d): killed at %s[%d]", s.id, s.inc, t.ts.name, t.baseIdx)
	}
	if s.inj.ShardStraggler(t.ts.name, t.baseIdx, s.id, s.inc) {
		e.traceFault("shard-straggler", t.ts.name, s.id,
			fmt.Sprintf("injected shard delay (incarnation %d)", s.inc))
		s.inj.Sleep()
	}
	defer func() {
		if v := recover(); v != nil {
			delta, err = nil, fmt.Errorf("shard %d (incarnation %d): contained panic: %s",
				s.id, s.inc, panicNote(v))
		}
	}()
	workers := storage.ClampParts(len(t.rows), t.workers, t.thr)
	if workers == 1 {
		r.foldOn(&s.own, t.rows, t.baseIdx, t.ts)
		return &ShardDelta{stages: []*stage{s.own.stage(r)}}, nil
	}
	if s.pool == nil {
		s.pool = newWorkerPool(t.workers)
	}
	parts := storage.SliceRanges(len(t.rows), workers)
	fold := func(wc *workerCtx, w int) {
		r.foldOn(wc, t.rows[parts[w].Lo:parts[w].Hi], t.baseIdx+parts[w].Lo, t.ts)
	}
	_, err = s.pool.scatter(workers, e.opt.Seed, uint64(t.baseIdx), func(wc *workerCtx, w int) error {
		fold(wc, w)
		return nil
	}, func(w, _ int, _ error) error {
		s.pool.ctxs[w].quarantine(r)
		fold(s.pool.ctxs[w], w)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d (incarnation %d): contained panic: %w", s.id, s.inc, err)
	}
	delta = &ShardDelta{stages: make([]*stage, workers)}
	for w := range delta.stages {
		delta.stages[w] = s.pool.ctxs[w].stage(r)
	}
	return delta, nil
}
