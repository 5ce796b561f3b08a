package core

import (
	"unsafe"

	"fluodb/internal/resource"
)

// Resource ledger glue (DESIGN.md §15). The engine charges bytes at its
// existing allocation seams — weight-arena chunk acquisition
// (arena.go), group-table bank/slot growth (table.go), uncertain-cache
// and scratch array growth — into worker-local plain int64
// counters that already travel through the batch barriers (merge/adopt
// transfer them with the state they describe). Once per committed
// mini-batch the controller folds those counters into a
// resource.Ledger, reads the runtime/metrics GC sampler, and stamps
// Snapshot.Resources. The per-tuple hot path is untouched: no atomics,
// no per-tuple arithmetic, 0 allocs/tuple with the ledger on.
//
// On top of the ledger sits the soft budget Options.MaxMemoryBytes with
// a two-rung degradation ladder, evaluated at the same deterministic
// pre-commit point as the uncertain-cache cap (end of processBatch, so
// failure-recovery replay re-degrades identically). Every rung falls
// back to a path that is bit-identical by construction:
//
//	rung 1 — drop the columnar segment cache: colFeed reports
//	         ineligibility and the row loop takes over (the PR 6
//	         equivalence gates pin the two paths bit-identical);
//	rung 2 — run the existing MaxUncertainRows eviction path against
//	         the remaining overage (reason "budget" instead of "cap").
//
// Rungs latch for the rest of the query: un-degrading mid-run would
// re-grow the freed pools and oscillate around the budget.

// ResourceUsage is one mini-batch's memory observation: per-pool byte
// residency, GC telemetry attributed to the batch, and budget state.
// It rides on Snapshot.Resources.
type ResourceUsage = resource.Usage

// uncertainRowBytes is the in-cache header cost of one cached uncertain
// tuple (the retained weight bytes are charged to the arena, the joined
// row to its table's batch storage).
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
	return banks + int64(cap(cs.tri)) + int64(cap(cs.triU)) +
		4*int64(cap(cs.sel)) + 4*int64(cap(cs.selU)) +
		8*int64(cap(cs.wf)) + int64(cap(cs.wbuf)) +
		8*int64(cap(cs.runKey)) + 8*int64(cap(cs.runF)) +
		cs.memo.MemBytes() +
		8*int64(cap(cs.memoEntries)) +
		4*int64(cap(cs.memoOff)) + 4*int64(cap(cs.memoCnt)) +
		8*int64(cap(cs.entArena)) +
		cs.jmemo.MemBytes() +
		4*int64(cap(cs.jOff)) + 4*int64(cap(cs.jCnt)) +
		24*int64(cap(cs.jRows))
}

// charge adds the stage's pinned bytes to the per-pool running totals.
func (st *stage) charge(tables, arenas, uncertain, scratch *int64) {
	*tables += st.tab.bytes
	*arenas += st.arena.bytes
	*uncertain += uncertainRowBytes * int64(cap(st.uncertain))
	*scratch += st.cs.memBytes()
}

// collectResidency folds every charge counter into the ledger. Runs on
// the controller at mini-batch boundaries, where worker stages are
// parked: every pool task runs inside a scatter barrier, so none is in
// flight here.
func (e *Engine) collectResidency() {
	var tables, arenas, uncertain, scratch int64
	for _, r := range e.runners {
		r.charge(&tables, &arenas, &uncertain, &scratch)
		scratch += int64(cap(r.reclassBuf)) + r.ev.memBytes()
	}
	if e.pool != nil {
		for _, wc := range e.pool.ctxs {
			for _, st := range wc.stages {
				if st != nil {
					st.charge(&tables, &arenas, &uncertain, &scratch)
				}
			}
		}
	}
	var segs int64
	for _, r := range e.runners {
		if t, ok := e.cat.Get(r.b.Input.Fact); ok {
			segs += t.ColumnarBytes()
		}
	}
	e.ledger.Set(resource.GroupTables, tables)
	e.ledger.Set(resource.WeightArenas, arenas)
	e.ledger.Set(resource.UncertainCache, uncertain)
	e.ledger.Set(resource.ColumnarScratch, scratch)
	e.ledger.Set(resource.SegmentCache, segs)
	e.ledger.Set(resource.Checkpoint, e.ckBytes)
}

// observeResources commits one mini-batch's memory observation: collect
// residency, advance peaks, attribute GC deltas, stamp snap.Resources
// and the degradation reason, and mirror the headline numbers into
// Metrics.
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
		u.GCCycles = d.Cycles
		u.AllocBytes = d.AllocBytes
		e.metrics.GCPauseNS += d.PauseTotalNS
		e.metrics.GCCycles += d.Cycles
	}
	u.BudgetBytes = e.opt.MaxMemoryBytes
	u.DegradeRung = e.degradeRung
	u.BudgetEvictions = e.metrics.BudgetEvictions
	e.lastUsage = u
	e.metrics.MemBytes = u.TotalBytes
	e.metrics.MemPeakBytes = u.PeakBytes
	e.metrics.DegradeRung = e.degradeRung
	snap.Resources = u
}

// Degradation reason strings, ordered by rung; combined ladder states
// concatenate ("budget:segcache+evict"), and cap-driven
// evictions append their own tag so Snapshot.Degraded names every cause.
const (
	degradeSegCache = "segcache"
	degradeEvict    = "evict"
)

// updateDegradeReason rebuilds the cached Snapshot.Degraded string.
// Called only when degradation state changes, so steady-state snapshots
// assign a prebuilt string (no per-batch allocation).
func (e *Engine) updateDegradeReason() {
	budget := ""
	if e.degradeRung >= 1 {
		budget = degradeSegCache
	}
	if e.degradeRung >= 2 {
		budget += "+" + degradeEvict
	}
	reason := ""
	if budget != "" {
		reason = "budget:" + budget
	}
	if e.metrics.UncertainEvictions > e.metrics.BudgetEvictions {
		if reason != "" {
			reason += ","
		}
		reason += "cap:" + degradeEvict
	}
	e.degradeReason = reason
}

// enforceMemoryBudget applies Options.MaxMemoryBytes at the
// deterministic pre-commit point (end of processBatch, next to the
// uncertain-cache cap): while the ledger total exceeds the soft budget,
// engage the next rung of the degradation ladder. Residency is
// re-collected between rungs so a rung that frees enough memory stops
// the ladder.
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
	// Rung 2: shed uncertain-cache residency through the existing
	// eviction path. Evict enough of the oldest cached tuples to cover
	// the overage (at least one whole cache's worth of headway is not
	// forced — eviction frees header+arena bytes gradually and the
	// ladder re-evaluates every batch).
	over := e.ledger.Total() - budget
	perRow := uncertainRowBytes
	if perRow < 1 {
		perRow = 1
	}
	evict := int(over / perRow)
	if evict < 1 {
		evict = 1
	}
	e.evictUncertain(evict, "budget")
}

// setDegradeRung latches a new (higher) rung, emits the trace event and
// rebuilds the degradation reason.
func (e *Engine) setDegradeRung(rung int) {
	if rung <= e.degradeRung {
		return
	}
	e.degradeRung = rung
	e.updateDegradeReason()
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
// row loop is bit-identical by the PR 6 equivalence gates) and release
// the storage-level segment cache. The plan's bank-stream aliases stay
// installed on the live tables — the row path writes every cell, so
// aliased reads remain consistent.
func (e *Engine) dropSegmentCache() {
	for _, r := range e.runners {
		if r.colPl != nil && r.colPl.ok {
			r.colPl.ok = false
			r.colPl.ct = nil
		}
		if t, ok := e.cat.Get(r.b.Input.Fact); ok {
			t.DropColumnar()
		}
	}
}

// evictUncertain force-resolves up to n cached uncertain tuples through
// the evictOldest path, charging the given reason ("cap" | "budget")
// into the metrics split behind gola_uncertain_evictions{reason}.
func (e *Engine) evictUncertain(n int, reason string) {
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
		if reason == "budget" {
			e.metrics.BudgetEvictions += int64(evict)
		}
		e.updateDegradeReason()
		e.conv.stepOut += int64(evict)
		e.trace.Emit(Event{Kind: EvEvict, Block: victim.b.ID, Key: reason,
			Folded: folded, Dropped: dropped, Kept: len(victim.uncertain)})
		remaining -= evict
	}
}

// Resources returns the most recent mini-batch's memory observation
// (zero-valued before the first committed batch).
func (e *Engine) Resources() ResourceUsage { return e.lastUsage }
