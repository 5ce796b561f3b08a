package core

import (
	"unsafe"

	"fluodb/internal/resource"
)

// Resource ledger glue (DESIGN.md §15). The engine charges bytes at its
// existing allocation seams — group-table bank/slot growth (table.go),
// uncertain-cache and scratch array growth — into worker-local plain
// int64 counters that already travel through the batch barriers (merge
// transfers them with the state it describes). Once per committed
// mini-batch the controller folds those counters into a
// resource.Ledger, reads the runtime/metrics GC sampler, and stamps
// Snapshot.Resources. The per-tuple hot path is untouched: no atomics,
// no per-tuple arithmetic, 0 allocs/tuple with the ledger on.
//
// On top of the ledger sits the soft budget Options.MaxMemoryBytes with
// a two-rung degradation ladder, evaluated at a deterministic pre-commit
// point (end of processBatch, so failure-recovery replay re-degrades
// identically):
//
//	rung 1 — drop the columnar segment cache: colFeed reports
//	         ineligibility and the row loop takes over (the PR 6
//	         equivalence gates pin the two paths bit-identical);
//	rung 2 — evict the oldest cached uncertain tuples against the
//	         remaining overage, force-resolving each by point-estimate
//	         truth (the cache's only bound).
//
// Rungs latch for the rest of the query: un-degrading mid-run would
// re-grow the freed pools and oscillate around the budget.

// ResourceUsage is one mini-batch's memory observation: per-pool byte
// residency, GC telemetry attributed to the batch, and budget state.
// It rides on Snapshot.Resources.
type ResourceUsage = resource.Usage

// uncertainRowBytes is the in-cache cost of one cached uncertain tuple:
// its lineage header and fact ordinal (its weights are regenerated, not
// stored; the joined row belongs to its table's batch storage).
const uncertainRowBytes = int64(unsafe.Sizeof(uncertainRow{}))

// memBytes is the colScratch resource charge: every reusable vector,
// memo array, computed-column bank and tri-state key memo the sweeper
// pins between batches.
func (cs *colScratch) memBytes() int64 {
	var banks int64
	for _, k := range cs.numK {
		if k != nil {
			banks += k.MemBytes()
		}
	}
	if cs.triK != nil {
		banks += cs.triK.MemBytes()
	}
	var runs int64
	for _, run := range cs.runs {
		runs += 8*int64(cap(run.keys)) + 8*int64(cap(run.fs))
	}
	return banks + runs + int64(cap(cs.tri)) + int64(cap(cs.triU)) +
		4*int64(cap(cs.sel)) + 4*int64(cap(cs.selU)) +
		8*int64(cap(cs.wf)) +
		cs.memo.MemBytes() +
		8*int64(cap(cs.memoEntries)) +
		4*int64(cap(cs.memoOff)) + 4*int64(cap(cs.memoCnt)) +
		8*int64(cap(cs.entArena)) +
		cs.jmemo.MemBytes() +
		4*int64(cap(cs.jOff)) + 4*int64(cap(cs.jCnt)) +
		24*int64(cap(cs.jRows)) +
		4*int64(cap(cs.pairRow)) + 8*int64(cap(cs.pairEnt))
}

// charge adds the stage's pinned bytes to the per-pool running totals.
func (st *stage) charge(tables, uncertain, scratch *int64) {
	*tables += st.tab.bytes
	*uncertain += uncertainRowBytes * int64(cap(st.uncertain))
	*scratch += st.cs.memBytes()
}

// collectResidency folds every charge counter into the ledger. Runs on
// the controller at mini-batch boundaries, where worker stages are
// parked: every pool task runs inside a scatter barrier, so none is in
// flight here. The uncertain-cache pool holds the runners' caches only,
// what rung 2 can evict: a worker stage's uncertain buffer is emptied
// at every merge and kept as scratch. Each fact table's segment cache
// is charged once, however many blocks stream it.
func (e *Engine) collectResidency() {
	var tables, uncertain, scratch int64
	for _, r := range e.runners {
		r.charge(&tables, &uncertain, &scratch)
		scratch += r.ev.memBytes()
	}
	if e.pool != nil {
		for _, wc := range e.pool.ctxs {
			for _, st := range wc.stages {
				if st != nil {
					st.charge(&tables, &scratch, &scratch)
				}
			}
		}
	}
	var segs int64
	for i, r := range e.runners {
		if t, ok := e.cat.Get(r.b.Input.Fact); ok && !e.streamedBefore(i) {
			segs += t.ColumnarBytes()
		}
	}
	e.ledger.Set(resource.GroupTables, tables)
	e.ledger.Set(resource.UncertainCache, uncertain)
	e.ledger.Set(resource.ColumnarScratch, scratch)
	e.ledger.Set(resource.SegmentCache, segs)
	e.ledger.Set(resource.Checkpoint, e.ckBytes)
}

// streamedBefore reports whether a runner before runner i streams its
// fact table.
func (e *Engine) streamedBefore(i int) bool {
	for _, r := range e.runners[:i] {
		if r.b.Input.Fact == e.runners[i].b.Input.Fact {
			return true
		}
	}
	return false
}

// observeResources commits one mini-batch's memory observation: collect
// residency, advance peaks, attribute GC deltas, stamp snap.Resources,
// and copy the headline numbers into Metrics.
func (e *Engine) observeResources(snap *Snapshot) {
	e.collectResidency()
	e.ledger.Observe()
	u := e.ledger.Snapshot()
	if e.gcSampler != nil {
		now := e.gcSampler.Read()
		d := now.Sub(e.gcPrev)
		e.gcPrev = now
		u.HeapLiveBytes = d.HeapLiveBytes
		u.HeapGoalBytes = d.HeapGoalBytes
		u.GCPauseNS = d.PauseTotalNS
		u.GCCPUNS = d.GCCPUNS
		u.GCCycles = d.Cycles
		u.AllocBytes = d.AllocBytes
		e.metrics.GCPauseNS += d.PauseTotalNS
		e.metrics.GCCycles += d.Cycles
		e.metrics.GCCPUNS += d.GCCPUNS
	}
	u.BudgetBytes = e.opt.MaxMemoryBytes
	u.DegradeRung = e.degradeRung
	e.lastUsage = u
	e.metrics.MemBytes = u.TotalBytes
	e.metrics.MemPeakBytes = u.PeakBytes
	e.metrics.DegradeRung = e.degradeRung
	snap.Resources = u
}

// degradeReasons is Snapshot.Degraded by rung: each rung names every
// ladder step engaged so far.
var degradeReasons = [...]string{"", "budget:segcache", "budget:segcache+evict"}

// enforceMemoryBudget applies Options.MaxMemoryBytes at the
// deterministic pre-commit point (end of processBatch): while the ledger
// total exceeds the soft budget, engage the next rung of the
// degradation ladder. Residency is re-collected between rungs so a rung
// that frees enough memory stops the ladder.
func (e *Engine) enforceMemoryBudget() {
	budget := e.opt.MaxMemoryBytes
	if budget <= 0 {
		return
	}
	e.collectResidency()
	if e.ledger.Total() <= budget {
		return
	}
	if e.degradeRung < 1 {
		e.setDegradeRung(1)
		e.dropSegmentCache()
		e.collectResidency()
		if e.ledger.Total() <= budget {
			return
		}
	}
	e.setDegradeRung(2)
	// Rung 2: shed uncertain-cache residency. Evict the fewest oldest
	// cached tuples whose charge covers the overage (evictOldest releases
	// each evicted row's bytes); the ladder re-evaluates every batch.
	over := e.ledger.Total() - budget
	e.evictUncertain(int((over + uncertainRowBytes - 1) / uncertainRowBytes))
}

// setDegradeRung latches a new (higher) rung and emits the trace event.
func (e *Engine) setDegradeRung(rung int) {
	if rung <= e.degradeRung {
		return
	}
	e.degradeRung = rung
	note := ""
	switch rung {
	case 1:
		note = "budget rung 1: columnar segment cache dropped (row path takes over)"
	case 2:
		note = "budget rung 2: uncertain-cache eviction engaged"
	}
	e.trace.Emit(Event{Kind: EvDegrade, Kept: rung, Note: note})
}

// dropSegmentCache is rung 1: disable every block's columnar plan (the
// row loop is bit-identical by the PR 6 equivalence gates), release
// the storage-level segment cache and each runner's group memo, which
// only a columnar sweep reads and which holds every key the query has
// seen (a worker stage's holds one batch's). The plan's bank-stream aliases stay installed
// on the live tables — the row path writes every cell, so aliased reads
// remain consistent.
func (e *Engine) dropSegmentCache() {
	for _, r := range e.runners {
		if r.colPl != nil && r.colPl.ok {
			r.colPl.ok = false
			r.colPl.ct = nil
		}
		r.cs.dropMemo()
		if t, ok := e.cat.Get(r.b.Input.Fact); ok {
			t.DropColumnar()
		}
	}
}

// evictUncertain force-resolves up to n cached uncertain tuples through
// the evictOldest path, largest block cache first.
func (e *Engine) evictUncertain(n int) {
	remaining := n
	for remaining > 0 {
		var victim *blockRunner
		for _, r := range e.runners {
			if victim == nil || len(r.uncertain) > len(victim.uncertain) {
				victim = r
			}
		}
		if victim == nil || len(victim.uncertain) == 0 {
			return
		}
		evict := remaining
		if evict > len(victim.uncertain) {
			evict = len(victim.uncertain)
		}
		folded, dropped := victim.evictOldest(evict, e.triEnv())
		e.metrics.UncertainEvictions += int64(evict)
		e.conv.stepOut += int64(evict)
		e.trace.Emit(Event{Kind: EvEvict, Block: victim.b.ID,
			Folded: folded, Dropped: dropped, Kept: len(victim.uncertain)})
		remaining -= evict
	}
}

// Resources returns the most recent mini-batch's memory observation
// (zero-valued before the first committed batch).
func (e *Engine) Resources() ResourceUsage { return e.lastUsage }
