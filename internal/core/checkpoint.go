package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"fluodb/internal/plan"
	"fluodb/internal/storage"
)

// Checkpoint/resume. With counter-based resampling a G-OLA engine at a
// mini-batch boundary is a pure function of its options, the batch
// index and the decisions that shaped the prefix: the bindings' epsilon
// boosts and the no-commit latch. Failure recovery already relies on
// this — replayUpTo reprocesses batches 0..k−1 under the final boosts
// and reproduces the engine state at batch k exactly — so a checkpoint
// stores only those decisions, and resume replays the prefix. Resume
// costs O(prefix) work; in exchange the deterministic set and the
// uncertain cache are never persisted, and their in-memory layout can
// change without a format change.
//
// A checkpoint is a small header: magic, version, the query-lineage
// and options fingerprint, the batch index, the no-commit flag and flip
// count, one epsilon boost per binding, and the metrics history
// (counters, degradation rung, memory peak, per-batch series), restored
// verbatim so the resumed engine reports the uninterrupted run's
// history. The encoding is fixed-width little-endian, so equal states
// serialize to equal bytes: the soak asserts checkpoint → resume →
// checkpoint round-trips byte-identically. An FNV-1a trailer guards the
// payload: a flipped bit anywhere — including free-form numeric fields
// no structural check would catch — is refused at restore instead of
// silently resuming from bad state. FNV is no MAC, so every length the
// decoder reads is also bounded by the bytes left.

const (
	ckMagic = "FLCP1"
	// 7: large groups draw their replica lanes from batch moments (a
	// replay under 6 regenerated per-row Poisson lanes); 6: one eviction
	// counter; 5: replay is the only format.
	ckVersion = 7
)

// ckSum is FNV-1a 64 over the checkpoint payload.
func ckSum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// ckWriter is a little-endian append-only buffer.
type ckWriter struct{ buf []byte }

func (w *ckWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}
func (w *ckWriter) i(v int)       { w.u64(uint64(int64(v))) }
func (w *ckWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *ckWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *ckWriter) b(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// ckReader is the matching cursor; failures latch into err.
type ckReader struct {
	buf []byte
	at  int
	err error
}

func (r *ckReader) fail(msg string) {
	if r.err == nil {
		r.err = queryErr(ErrKindCheckpoint, msg)
	}
}
func (r *ckReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.at+8 > len(r.buf) {
		r.fail("truncated checkpoint")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.at:])
	r.at += 8
	return v
}
func (r *ckReader) i() int       { return int(int64(r.u64())) }
func (r *ckReader) i64() int64   { return int64(r.u64()) }
func (r *ckReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *ckReader) b() bool {
	if r.err != nil {
		return false
	}
	if r.at >= len(r.buf) {
		r.fail("truncated checkpoint")
		return false
	}
	v := r.buf[r.at]
	r.at++
	return v != 0
}

// count reads a length prefix for elements of width bytes each,
// refusing one that is negative or larger than the bytes left could
// hold — before anything is sized by it.
func (r *ckReader) count(width int) int {
	n := r.i()
	if r.err == nil && (n < 0 || n > (len(r.buf)-r.at)/width) {
		r.fail("length out of range")
	}
	if r.err != nil {
		return 0
	}
	return n
}

// fingerprint ties a checkpoint to the query shape and the
// statistics-affecting options; Parallelism and other purely
// operational knobs may differ between save and resume.
func (e *Engine) fingerprint() uint64 {
	s := fmt.Sprintf("seed=%d b=%d t=%d c=%v eps=%v sup=%d cap=%d",
		e.opt.Seed, e.opt.Batches, e.opt.Trials, e.opt.Confidence,
		e.opt.EpsilonSigma, e.opt.MinGroupSupport, e.opt.BootstrapSampleCap)
	full := append([]string(nil), e.opt.FullTables...)
	sort.Strings(full)
	for _, f := range full {
		s += "|full=" + f
	}
	for _, r := range e.runners {
		s += fmt.Sprintf("|blk=%d:%s:%s", r.b.ID, r.b.Kind, r.b.Label)
	}
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s += fmt.Sprintf("|tab=%s:%d", n, e.tables[n].total)
	}
	return hashString(s)
}

// Checkpoint serializes the engine's state at the current mini-batch
// boundary. The bytes are self-describing and deterministic: equal
// engine states produce equal checkpoints.
func (e *Engine) Checkpoint() ([]byte, error) {
	if e.fatal != nil {
		return nil, queryErr(ErrKindCheckpoint, "engine is in a fatal state")
	}
	csp := e.sctl.Begin("checkpoint", e.spanQuery, e.batch, -1)
	defer e.sctl.End(csp)
	w := &ckWriter{}
	w.buf = append(w.buf, ckMagic...)
	w.buf = append(w.buf, ckVersion)
	w.u64(e.fingerprint())
	w.i(e.batch)

	// Decisions: with the batch index, all a replay needs.
	w.b(e.bind.noCommit)
	w.i(e.bind.flips)
	w.i(len(e.bind.scalars))
	for _, s := range e.bind.scalars {
		w.f64(s.epsBoost)
	}
	w.i(len(e.bind.groups))
	for _, g := range e.bind.groups {
		w.f64(g.epsBoost)
	}
	w.i(len(e.bind.sets))
	for _, sb := range e.bind.sets {
		w.f64(sb.epsBoost)
	}

	// Metrics (restored verbatim so a resumed engine reports the same
	// history as the uninterrupted run).
	w.i(e.metrics.Batches)
	w.i(e.metrics.Recomputes)
	w.i64(e.metrics.RowsProcessed)
	w.i64(e.metrics.DeterministicFolds)
	w.i64(e.metrics.UncertainEvictions)
	w.i(e.degradeRung)
	w.i64(e.ledger.PeakTotal())
	w.i64(e.metrics.GCPauseNS)
	w.i64(e.metrics.GCCycles)
	w.i(len(e.metrics.UncertainPerBatch))
	for _, n := range e.metrics.UncertainPerBatch {
		w.i(n)
	}
	w.i(len(e.metrics.BatchDurations))
	for _, d := range e.metrics.BatchDurations {
		w.i64(int64(d))
	}
	w.u64(ckSum(w.buf))
	// Record the encode-buffer size as the checkpoint resource charge.
	// The caller owns the returned bytes, so this is the cost of the most
	// recent checkpoint — the residency a checkpointing loop sustains.
	e.ckBytes = int64(cap(w.buf))
	e.trace.Emit(Event{Kind: EvCheckpoint, Kept: e.batch,
		Note: fmt.Sprintf("bytes=%d", len(w.buf))})
	return w.buf, nil
}

// Resume rebuilds an engine from a checkpoint taken by Checkpoint on an
// engine with the same query and statistics-affecting options, by
// replaying the checkpointed prefix. Operational options (Parallelism,
// MaxMemoryBytes, Profile, chaos injector) may differ.
func Resume(q *plan.Query, cat *storage.Catalog, opt Options, data []byte) (*Engine, error) {
	e, err := New(q, cat, opt)
	if err != nil {
		return nil, err
	}
	if err := e.restore(data); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func (e *Engine) restore(data []byte) error {
	rsp := e.sctl.Begin("resume", 0, -1, -1)
	oldTop := e.spanTop
	e.spanTop = rsp
	defer func() {
		e.spanTop = oldTop
		e.sctl.End(rsp)
	}()
	if len(data) < len(ckMagic) || string(data[:len(ckMagic)]) != ckMagic {
		return queryErr(ErrKindCheckpoint, "bad magic")
	}
	if len(data) < len(ckMagic)+1+8 {
		return queryErr(ErrKindCheckpoint, "truncated checkpoint")
	}
	body := data[:len(data)-8]
	if want := binary.LittleEndian.Uint64(data[len(data)-8:]); ckSum(body) != want {
		return queryErr(ErrKindCheckpoint, "checksum mismatch: checkpoint bytes corrupted")
	}
	if v := body[len(ckMagic)]; v != ckVersion {
		return queryErr(ErrKindCheckpoint, fmt.Sprintf("unsupported version %d", v))
	}
	r := &ckReader{buf: body, at: len(ckMagic) + 1}
	if fp := r.u64(); r.err == nil && fp != e.fingerprint() {
		return queryErr(ErrKindCheckpoint, "fingerprint mismatch: checkpoint belongs to a different query or options")
	}
	batch := r.i()
	if r.err == nil && (batch < 0 || batch > e.opt.Batches) {
		return queryErr(ErrKindCheckpoint, "batch index out of range")
	}

	noCommit := r.b()
	flips := r.i()
	boosts := func(what string, n int) []float64 {
		if got := r.count(8); r.err == nil && got != n {
			r.fail(what + " binding count mismatch")
		}
		if r.err != nil {
			return nil
		}
		bs := make([]float64, n)
		for i := range bs {
			// Boosts start at 1 and only ever double.
			if bs[i] = r.f64(); !(bs[i] >= 1) || math.IsInf(bs[i], 1) {
				r.fail("epsilon boost out of range")
			}
		}
		return bs
	}
	scalarBoosts := boosts("scalar", len(e.bind.scalars))
	groupBoosts := boosts("group", len(e.bind.groups))
	setBoosts := boosts("set", len(e.bind.sets))

	var m Metrics
	m.Batches = r.i()
	m.Recomputes = r.i()
	m.RowsProcessed = r.i64()
	m.DeterministicFolds = r.i64()
	m.UncertainEvictions = r.i64()
	rung := r.i()
	if r.err == nil && (rung < 0 || rung > 2) {
		r.fail("degradation rung out of range")
	}
	memPeak := r.i64()
	m.GCPauseNS = r.i64()
	m.GCCycles = r.i64()
	if n := r.count(8); n > 0 {
		m.UncertainPerBatch = make([]int, n)
		for i := range m.UncertainPerBatch {
			m.UncertainPerBatch[i] = r.i()
		}
	}
	if n := r.count(8); n > 0 {
		m.BatchDurations = make([]time.Duration, n)
		for i := range m.BatchDurations {
			m.BatchDurations[i] = time.Duration(r.i64())
		}
	}
	if r.err == nil && r.at != len(r.buf) {
		r.fail("trailing bytes after checkpoint payload")
	}
	if r.err != nil {
		return r.err
	}

	for i, s := range e.bind.scalars {
		s.epsBoost = scalarBoosts[i]
	}
	for i, g := range e.bind.groups {
		g.epsBoost = groupBoosts[i]
	}
	for i, sb := range e.bind.sets {
		sb.epsBoost = setBoosts[i]
	}
	e.bind.noCommit = noCommit
	if batch > 0 {
		// Reprocess the prefix with the restored boosts: by the
		// failure-recovery invariant, fresh processing of batches 0..k−1
		// under the final boost values reproduces the engine state at
		// batch k exactly.
		if err := e.replayUpTo(batch - 1); err != nil {
			return err
		}
		e.batch = batch
	}

	// Metrics come after the replay so the replayed prefix's own
	// bookkeeping is overwritten with the original run's history.
	e.metrics.Batches = m.Batches
	e.metrics.Recomputes = m.Recomputes
	e.metrics.RowsProcessed = m.RowsProcessed
	e.metrics.DeterministicFolds = m.DeterministicFolds
	e.metrics.UncertainEvictions = m.UncertainEvictions
	e.metrics.GCPauseNS = m.GCPauseNS
	e.metrics.GCCycles = m.GCCycles
	e.metrics.UncertainPerBatch = m.UncertainPerBatch
	e.metrics.BatchDurations = m.BatchDurations
	e.bind.flips = flips
	// Re-engage latched degradation rungs: a resumed budget-degraded
	// query must keep running degraded (un-degrading would re-grow the
	// freed pools and break the determinism of the latch). The replay
	// may already have re-engaged rungs deterministically during prefix
	// reprocessing; setDegradeRung is monotone, so this is safe.
	if rung >= 1 && e.degradeRung < 1 {
		e.setDegradeRung(1)
		e.dropSegmentCache()
	}
	if rung >= 2 {
		e.setDegradeRung(2)
	}
	e.metrics.DegradeRung = e.degradeRung
	e.ledger.RestorePeak(memPeak)
	e.metrics.MemPeakBytes = e.ledger.PeakTotal()
	e.trace.Emit(Event{Kind: EvResume, Kept: batch,
		Note: fmt.Sprintf("replayed=%d", batch)})
	return nil
}
