package core

import (
	"fmt"
	"runtime"
	"time"

	"fluodb/internal/chaos"
	"fluodb/internal/exec"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Partition → fold → ordered merge. FluoDB is "a parallel online query
// execution framework" (§1), and every form of parallelism here is one
// step: split a mini-batch into contiguous parts (storage.SliceRanges,
// sized by storage.ClampParts), fold each part into a private stage,
// merge the stages in part order. All aggregate states are mergeable by
// construction (internal/agg), the CLT moments merge with the
// parallel-variance formula, and per-tuple resamples are counter-based
// hashes of the global row index, so the statistics are identical to a
// serial run up to group insertion order — which merging contiguous
// parts in part order reproduces exactly.
//
// The step exists once. A runner folds single-part batches into its own
// home stage; the engine folds multi-part batches on its worker pool
// (feedBatchParallel) and merges them with mergeStage. Failed parts are
// redone by the one containment ladder, workerPool.scatter (pool.go).
// Stages persist across batches: tables are recycled (entry free list),
// not reallocated, and the uncertain buffer, joiner clone, columnar
// scratch and classification environment are reused.

// stage is one fold destination: everything a fold writes, private to
// the goroutine folding into it and merged by its owner at the barrier.
// The runner embeds one as its home stage (the authoritative cross-batch
// state); pool workers keep one per runner.
type stage struct {
	tab       *onlineTable
	uncertain []uncertainRow
	// joiner shares the (read-only) dimension hash tables but its one-row
	// scratch is per-call state, so every stage owns a clone.
	joiner *exec.Joiner
	folds  int64
	// acc holds per-stage phase times, merged at the barrier; phase
	// breakdowns therefore sum worker time and may exceed batch wall
	// time under parallel folding.
	acc phaseAcc
	cs  colScratch
	// te is the classification environment of the fold, reclassification
	// or snapshot point pass in progress, bound by whoever drives the
	// stage (the controller's per-batch environment or the snapshot's
	// point environment for the home stage, the worker's refreshed one
	// otherwise); the tri-state kernel's keyed slots resolve through it.
	te *triEnv
}

// newStage builds a worker-side stage for r. A fresh stage is also what
// a redone part folds into: a stage whose fold panicked may be partial
// or poisoned and is dropped, never merged or recycled.
func (r *blockRunner) newStage() *stage {
	st := &stage{tab: newOnlineTable(r.eng.opt.Trials), joiner: r.joiner.CloneForWorker()}
	st.tab.configure(r.cltKinds)
	return st
}

// absorb merges src into dst and resets src for its next batch: the
// uncertain rows now live in dst (the buffer is zeroed so dropped rows
// stay collectable) and the table's entries return to its free list.
func (dst *stage) absorb(src *stage) {
	dst.tab.merge(src.tab)
	dst.uncertain = append(dst.uncertain, src.uncertain...)
	dst.folds += src.folds
	dst.acc.merge(&src.acc)
	src.folds = 0
	src.acc.reset()
	for i := range src.uncertain {
		src.uncertain[i] = uncertainRow{}
	}
	src.uncertain = src.uncertain[:0]
	src.tab.recycle()
}

// mergeStage drains a worker stage into the runner. Callers
// merge in part order: with part boundaries fixed by row position this
// reproduces the serial group insertion order exactly.
func (r *blockRunner) mergeStage(st *stage) {
	r.absorb(st)
	r.settle()
}

// settle publishes what a fold into the home stage changed outside it.
func (r *blockRunner) settle() {
	r.eng.metrics.DeterministicFolds += r.folds
	r.folds = 0
	r.invalidateEval()
}

// merge folds another accumulator into a (Chan et al. parallel
// variance).
func (a *cltAcc) merge(b cltAcc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*a.n*b.n/n
	a.mean += d * b.n / n
	a.n = n
}

// cache retains an uncertain row with its lineage and its fact row's
// global ordinal, from which every reader regenerates its weights.
func (st *stage) cache(row types.Row, ord int) {
	st.uncertain = append(st.uncertain, uncertainRow{row: row, ord: ord})
}

// rowWeights derives global row gi's weights into st's scratch (nil
// outside the bootstrap subsample); valid until the stage's next
// derivation.
func (r *blockRunner) rowWeights(st *stage, gi int) []float64 {
	wf := r.eng.weights(st.cs.wf, r.ts, gi, r.eng.opt.Trials)
	if wf != nil {
		st.cs.wf = wf
	}
	return wf
}

// feedPart folds rows (global rows baseIdx..) into st on the calling
// goroutine. When the block's columnar plan applies, the rows are swept
// by the vectorized pipeline (colFeed) instead of the row loop below —
// bit-identically. The row loop is timed as one fold phase per part.
func (r *blockRunner) feedPart(rows []types.Row, baseIdx int, st *stage) {
	if r.colFeed(rows, baseIdx, st) {
		return
	}
	t0 := time.Now()
	for i, fact := range rows {
		r.feedTupleTo(fact, r.rowWeights(st, baseIdx+i), baseIdx+i, st)
	}
	st.acc.ns[phaseFold] += int64(time.Since(t0))
}

// foldOn folds rows into wc's persistent stage for r, on the calling
// goroutine, under wc's refreshed classification environment.
func (r *blockRunner) foldOn(wc *workerCtx, rows []types.Row, baseIdx int) {
	st := wc.stage(r)
	st.te = wc.refresh(r.eng)
	st.tab.stageMoments(r.tab)
	r.feedPart(rows, baseIdx, st)
}

// feedBatchSerial folds a mini-batch into the home stage on the
// caller's goroutine.
func (r *blockRunner) feedBatchSerial(rows []types.Row, baseIdx int, te *triEnv) {
	r.ensureColPlan()
	r.revalidateColPlan()
	r.te = te
	r.feedPart(rows, baseIdx, &r.stage)
	r.settle()
}

// chaosFault is the panic value of an injected fault, so containment
// diagnostics can tell injected faults from real bugs.
type chaosFault struct{ kind chaos.Kind }

func (c *chaosFault) String() string { return "chaos: injected " + c.kind.String() }

// panicNote renders a recovered panic value for trace events.
func panicNote(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// feedBatchParallel folds one mini-batch across the engine's workers,
// or into the home stage when the clamp leaves a single part (small
// batch, Parallelism 1, closed engine). A worker panic (injected or
// real) is contained by scatter: that worker's stage is quarantined and
// its part alone is redone on a fresh stage on this goroutine — a part's
// stage is a pure function of its rows and the batch's bindings, and the
// merge below runs in worker order either way, so the outcome is
// bit-identical to a clean pass. Only when a part's redo ladder is
// exhausted does a typed error surface, with nothing merged.
func (r *blockRunner) feedBatchParallel(rows []types.Row, baseIdx int, te *triEnv) error {
	e := r.eng
	var pool *workerPool
	workers := storage.ClampParts(len(rows), e.opt.Parallelism, e.opt.seams.PartRows)
	if workers > 1 {
		pool = e.ensurePool()
	}
	if pool == nil {
		r.feedBatchSerial(rows, baseIdx, te)
		return nil
	}
	// Build the columnar plan on the controller before any worker can
	// race to it (workers share the runner); re-acquire the encoding here
	// too if a fault dropped it.
	r.ensureColPlan()
	r.revalidateColPlan()
	parts := storage.SliceRanges(len(rows), workers)
	inj := e.opt.seams.Chaos
	fold := func(wc *workerCtx, w int) {
		r.foldOn(wc, rows[parts[w].Lo:parts[w].Hi], baseIdx+parts[w].Lo)
	}
	_, err := pool.scatter(workers, func(wc *workerCtx, w int) error {
		switch k := inj.WorkerFault(r.ts.name, baseIdx, wc.id); k {
		case chaos.KindPanic:
			e.traceFault("panic", r.ts.name, wc.id, "injected worker panic")
			panic(&chaosFault{kind: k})
		case chaos.KindStraggler:
			// A straggler is benign for correctness — merge order is
			// fixed by worker index — but stresses barrier/scheduling.
			e.traceFault("straggler", r.ts.name, wc.id, "injected straggler delay")
			inj.Sleep()
		case chaos.KindCorrupt:
			// Poison the private stage (double-fold its rows) and then
			// fail: the soak's bit-identity check proves the corrupted
			// stage is quarantined, never merged.
			e.traceFault("corrupt", r.ts.name, wc.id, "injected stage corruption")
			fold(wc, w)
			panic(&chaosFault{kind: k})
		}
		sl := e.workerSlab(wc.id)
		tsp := sl.Begin("task", e.spanFeed, e.spanBatchNo, r.b.ID)
		fold(wc, w)
		sl.End(tsp)
		return nil
	}, func(w, attempt int, cause error) error {
		// Chaos never fires here (faults are keyed to pool tasks), so an
		// injected schedule cannot livelock the redo.
		if _, ok := cause.(*workerPanic); ok && attempt == 1 {
			e.trace.Emit(Event{Kind: EvWorkerPanic, Key: r.ts.name, Worker: w, Note: cause.Error()})
		}
		e.trace.Emit(Event{Kind: EvSerialRetry, Key: r.ts.name, Worker: w, Kept: attempt})
		ssp := e.sctl.Begin("serial-retry", e.spanFeed, e.spanBatchNo, r.b.ID)
		defer e.sctl.End(ssp)
		pool.ctxs[w].quarantine(r)
		fold(pool.ctxs[w], w)
		return nil
	})
	if err != nil {
		return &QueryError{Kind: ErrKindWorkerPanic, Batch: e.batch, Worker: -1,
			Note: fmt.Sprintf("parallel batch failed and %d serial retries panicked: %v", ladderAttempts, err)}
	}
	for w := range parts {
		r.mergeStage(pool.ctxs[w].stage(r))
	}
	return nil
}

// defaultParallelism resolves Parallelism 0.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }
