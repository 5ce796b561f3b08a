package core

import "fluodb/internal/storage"

// Pipelined bootstrap-weight generation. Per-tuple resamples are
// counter-based hashes — a pure function of (seed, table, row index,
// trial) independent of any engine state — so batch k+1's weight
// vectors and subsample membership can be computed on the worker pool
// while the controller runs batch k's serial ranges/snapshot tail. The
// per-table buffer is double-buffered by construction: a fill is
// launched only after the previous fill has been fully consumed
// (launchPrefetch waits on the fill barrier before reusing the arrays),
// and every consumer waits on it and validates the (table, batch)
// identity before reading. Failure-recovery replay restarts the prefix
// at batch 0, so replayUpTo invalidates the buffers up front; because
// the derivation is pure, a discarded prefetch costs nothing but the
// work. That same purity is the fault story: a prefetch lost to a
// worker panic, a pool shutdown, or an injected drop degrades to inline
// weight derivation with byte-identical results.

// weightPrefetch is one table's prefetched weight block for a single
// upcoming mini-batch.
type weightPrefetch struct {
	ts    *tableStream
	batch int
	start int // global row index of the batch's first row
	// sampled[i] reports subsample membership of row start+i; weights
	// holds the per-trial multiplicities of sampled rows, laid out
	// [row][trial] (rows outside the subsample keep stale bytes — they
	// are never read).
	sampled []bool
	weights []uint8
	// fill is the fill barrier: launchPrefetch submits the worker tasks
	// under it, every reader (consumer, relaunch, invalidate, Close)
	// drains it. A fresh group per launch keeps recovered-panic state
	// from leaking across batches.
	fill  *taskGroup
	valid bool
	// bytes is the resource-ledger charge for the two arrays, recorded
	// by the controller at launch time (fills run concurrently with the
	// batch tail, so the ledger never reads the slice headers live).
	bytes int64
}

// drain waits for any in-flight fill and reports whether it completed
// without a worker panic. A panicked fill leaves undefined bytes in the
// arrays, so the buffer is invalidated and consumers fall back to
// inline derivation.
func (pf *weightPrefetch) drain() bool {
	if pf.fill == nil {
		return true
	}
	if panics := pf.fill.wait(); len(panics) > 0 {
		pf.valid = false
		return false
	}
	return true
}

// launchPrefetch schedules batch bi's weight generation on the worker
// pool for every streamed table. It is a no-op until the pool exists
// (serial engines never pay for it).
func (e *Engine) launchPrefetch(bi int) {
	if e.pool == nil || e.closed || bi >= e.opt.Batches {
		return
	}
	if e.degradeRung >= 2 {
		// Budget rung 2: prefetch stays off for the rest of the query;
		// consumers derive weights inline (byte-identical — resamples are
		// pure counter hashes).
		return
	}
	trials := e.opt.Trials
	for _, ts := range e.tables {
		if bi >= len(ts.batches) || len(ts.batches[bi]) == 0 {
			continue
		}
		pf := e.prefetch[ts.name]
		if pf == nil {
			pf = &weightPrefetch{}
			e.prefetch[ts.name] = pf
		}
		// The previous fill must be fully drained before its arrays are
		// reused (consumers waited on the barrier before reading, and the
		// batch that read them has already been processed by the time the
		// next launch happens).
		pf.drain()
		n := len(ts.batches[bi])
		pf.ts, pf.batch, pf.start, pf.valid = ts, bi, ts.starts[bi], true
		pf.fill = &taskGroup{}
		if cap(pf.sampled) < n {
			pf.sampled = make([]bool, n)
		}
		pf.sampled = pf.sampled[:n]
		if cap(pf.weights) < n*trials {
			pf.weights = make([]uint8, n*trials)
		}
		pf.weights = pf.weights[:n*trials]
		pf.bytes = int64(cap(pf.sampled)) + int64(cap(pf.weights))
		for w, rg := range storage.SliceRanges(n, storage.ClampParts(n, e.pool.size(), 1)) {
			err := e.pool.submit(w, pf.fill, func(wc *workerCtx) {
				// Fills overlap the controller's batch tail and outlive the
				// batch span, so the span parents to the query span.
				sl := e.workerSlab(wc.id)
				psp := sl.Begin("prefetch", e.spanQuery, bi+1, -1)
				for i := rg.Lo; i < rg.Hi; i++ {
					s := e.sampled(ts, pf.start+i)
					pf.sampled[i] = s
					if s {
						e.weightsInto(pf.weights[i*trials:i*trials:(i+1)*trials], ts, pf.start+i)
					}
				}
				sl.End(psp)
			})
			if err != nil {
				// Pool stopped mid-launch: the rows this worker would have
				// covered stay stale, so the whole buffer is unusable. The
				// already-submitted tasks still drain through pf.fill.
				pf.valid = false
				break
			}
		}
	}
}

// prefetched returns the prefetch buffer for (ts, bi) once its fill has
// completed, or nil when no matching (or intact) prefetch exists — the
// feed path then derives weights inline, producing byte-identical
// values. An injected prefetch drop discards the buffer here, right at
// the consumption point it is meant to stress.
func (e *Engine) prefetched(ts *tableStream, bi int) *weightPrefetch {
	pf := e.prefetch[ts.name]
	if pf == nil {
		return nil
	}
	if !pf.drain() {
		e.traceFault("prefetch-panic", ts.name, -1, "prefetch fill panicked; deriving weights inline")
		return nil
	}
	if !pf.valid || pf.ts != ts || pf.batch != bi {
		return nil
	}
	if e.opt.Chaos.PrefetchDrop(ts.name, bi) {
		pf.valid = false
		e.traceFault("prefetch-drop", ts.name, -1, "injected prefetch invalidation")
		return nil
	}
	return pf
}

// invalidatePrefetch drains in-flight fills and marks every buffer
// stale. Called before each replay attempt: the replayed prefix
// restarts at batch 0 and must re-pipeline from there.
func (e *Engine) invalidatePrefetch() {
	for _, pf := range e.prefetch {
		pf.drain()
		pf.valid = false
	}
}
