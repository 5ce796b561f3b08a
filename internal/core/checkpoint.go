package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"fluodb/internal/bootstrap"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Checkpoint/resume. A G-OLA engine at a mini-batch boundary is fully
// described by (a) the deterministic set — each block's online
// aggregate table, (b) the uncertain cache, (c) the parameter bindings
// (points, variation ranges, committed intersections, epsilon boosts),
// and (d) the RNG cursor — which, with counter-based resampling, is
// just the seed plus the batch index: weights for any row regenerate as
// pure hashes. Serializing those lets a cancelled or crashed query
// resume exactly where it stopped, replay-free.
//
// Two modes, chosen automatically:
//
//   - full: every block's table is banked (all aggregates CLT-estimable
//     — SUM/COUNT/AVG, the common OLA shape). Entries are flat float
//     banks, serialized verbatim in insertion order; resume rebuilds the
//     tables bit-identically with zero reprocessing.
//   - replay: some aggregate carries opaque state (MIN/MAX, quantile
//     digests, HLL sketches). The checkpoint stores only the bindings'
//     epsilon boosts, the no-commit flag and the batch index; resume
//     reprocesses batches 0..k−1 — deterministic by the same argument as
//     failure-recovery replay, at the cost of redoing prefix work.
//
// The encoding is hand-rolled (fixed-width little-endian, float bits,
// sorted map keys) so equal states serialize to equal bytes: the soak
// asserts checkpoint → resume → checkpoint round-trips byte-identically.
// An FNV-1a trailer guards the payload: a flipped bit anywhere —
// including free-form numeric fields no structural check would catch —
// is refused at restore instead of silently resuming from bad state.

const (
	ckMagic   = "FLCP1"
	ckVersion = 4 // 4: uncertain rows carry their fact ordinal, not repW

	ckModeFull   = 0
	ckModeReplay = 1
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
func (w *ckWriter) byte1(v byte) { w.buf = append(w.buf, v) }
func (w *ckWriter) str(s string) {
	w.i(len(s))
	w.buf = append(w.buf, s...)
}
func (w *ckWriter) bytes(b []uint8) {
	w.i(len(b))
	w.buf = append(w.buf, b...)
}
func (w *ckWriter) floats(fs []float64) {
	w.i(len(fs))
	for _, f := range fs {
		w.f64(f)
	}
}
func (w *ckWriter) value(v types.Value) {
	w.byte1(byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindBool:
		w.b(v.Bool())
	case types.KindInt:
		w.i64(v.Int())
	case types.KindFloat:
		w.f64(v.Float())
	case types.KindString:
		w.str(v.Str())
	}
}
func (w *ckWriter) row(r types.Row) {
	w.i(len(r))
	for _, v := range r {
		w.value(v)
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
func (r *ckReader) byte1() byte {
	if r.err != nil {
		return 0
	}
	if r.at >= len(r.buf) {
		r.fail("truncated checkpoint")
		return 0
	}
	v := r.buf[r.at]
	r.at++
	return v
}
func (r *ckReader) b() bool { return r.byte1() != 0 }
func (r *ckReader) str() string {
	n := r.i()
	if r.err != nil || n < 0 || r.at+n > len(r.buf) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[r.at : r.at+n])
	r.at += n
	return s
}
func (r *ckReader) bytes() []uint8 {
	n := r.i()
	if r.err != nil || n < 0 || r.at+n > len(r.buf) {
		r.fail("truncated bytes")
		return nil
	}
	b := make([]uint8, n)
	copy(b, r.buf[r.at:r.at+n])
	r.at += n
	return b
}
func (r *ckReader) floats() []float64 {
	n := r.i()
	if r.err != nil || n < 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.f64()
	}
	return fs
}
func (r *ckReader) value() types.Value {
	switch types.Kind(r.byte1()) {
	case types.KindNull:
		return types.Null
	case types.KindBool:
		return types.NewBool(r.b())
	case types.KindInt:
		return types.NewInt(r.i64())
	case types.KindFloat:
		return types.NewFloat(r.f64())
	case types.KindString:
		return types.NewString(r.str())
	}
	r.fail("unknown value kind")
	return types.Null
}
func (r *ckReader) row() types.Row {
	n := r.i()
	if r.err != nil || n < 0 || n > len(r.buf) {
		r.fail("bad row length")
		return nil
	}
	row := make(types.Row, n)
	for i := range row {
		row[i] = r.value()
	}
	return row
}

// fingerprint ties a checkpoint to the query shape and the
// statistics-affecting options; Parallelism and other purely
// operational knobs may differ between save and resume.
func (e *Engine) fingerprint() uint64 {
	s := fmt.Sprintf("seed=%d b=%d t=%d c=%v eps=%v sup=%d cap=%d budget=%d",
		e.opt.Seed, e.opt.Batches, e.opt.Trials, e.opt.Confidence,
		e.opt.EpsilonSigma, e.opt.MinGroupSupport, e.opt.BootstrapSampleCap,
		e.opt.SnapshotEvalBudget)
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

// checkpointMode picks full when every block's table is banked.
func (e *Engine) checkpointMode() byte {
	for _, r := range e.runners {
		if !r.tab.banked {
			return ckModeReplay
		}
	}
	return ckModeFull
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
	mode := e.checkpointMode()
	w := &ckWriter{}
	w.buf = append(w.buf, ckMagic...)
	w.byte1(ckVersion)
	w.byte1(mode)
	w.u64(e.fingerprint())
	w.i(e.batch)

	// Bindings. Both modes persist the boosts and flags; full mode also
	// persists points, ranges and committed intersections.
	w.b(e.bind.noCommit)
	w.i(e.bind.flips)
	w.i(len(e.bind.scalars))
	for _, s := range e.bind.scalars {
		w.f64(s.epsBoost)
		if mode == ckModeFull {
			w.value(s.point)
			w.f64(s.rng.r.Lo)
			w.f64(s.rng.r.Hi)
			w.byte1(byte(s.rng.status))
			w.f64(s.committed.Lo)
			w.f64(s.committed.Hi)
			w.b(s.hasCommitted)
		}
	}
	w.i(len(e.bind.groups))
	for _, g := range e.bind.groups {
		w.f64(g.epsBoost)
		if mode == ckModeFull {
			w.b(g.complete)
			keys := sortedKeys(g.point)
			w.i(len(keys))
			for _, k := range keys {
				w.str(k)
				w.value(g.point[k])
			}
			keys = sortedKeys(g.rng)
			w.i(len(keys))
			for _, k := range keys {
				pr := g.rng[k]
				w.str(k)
				w.f64(pr.r.Lo)
				w.f64(pr.r.Hi)
				w.byte1(byte(pr.status))
			}
			keys = sortedKeys(g.committed)
			w.i(len(keys))
			for _, k := range keys {
				w.str(k)
				w.f64(g.committed[k].Lo)
				w.f64(g.committed[k].Hi)
			}
		}
	}
	w.i(len(e.bind.sets))
	for _, sb := range e.bind.sets {
		w.f64(sb.epsBoost)
		if mode == ckModeFull {
			w.b(sb.complete)
			keys := sortedKeys(sb.point)
			w.i(len(keys))
			for _, k := range keys {
				w.str(k)
				w.b(sb.point[k])
			}
			keys = sortedKeys(sb.tri)
			w.i(len(keys))
			for _, k := range keys {
				w.str(k)
				w.byte1(byte(sb.tri[k]))
			}
			keys = sortedKeys(sb.committed)
			w.i(len(keys))
			for _, k := range keys {
				w.str(k)
				w.b(sb.committed[k])
			}
		}
	}

	// Deterministic set + uncertain cache (full mode only; replay mode
	// reconstructs both by reprocessing the prefix).
	if mode == ckModeFull {
		w.i(len(e.runners))
		for _, r := range e.runners {
			t := r.tab
			w.i(len(t.entries))
			for _, en := range t.entries {
				w.row(en.key)
				w.i(en.n)
				w.i(en.ns)
				w.floats(en.mainW)
				w.floats(en.mainV)
				w.floats(en.bankW)
				w.floats(en.bankV)
				w.i(len(en.clt))
				for _, c := range en.clt {
					w.f64(c.n)
					w.f64(c.mean)
					w.f64(c.m2)
				}
			}
			w.i(len(r.uncertain))
			for _, u := range r.uncertain {
				w.row(u.row)
				w.bytes(u.weights)
				w.i(u.ord)
			}
		}
	}

	// Metrics (restored verbatim so a resumed engine reports the same
	// history as the uninterrupted run).
	w.i(e.metrics.Batches)
	w.i(e.metrics.Recomputes)
	w.i64(e.metrics.RowsProcessed)
	w.i64(e.metrics.DeterministicFolds)
	w.i64(e.metrics.UncertainEvictions)
	w.i64(e.metrics.BudgetEvictions)
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
		Note: fmt.Sprintf("mode=%d bytes=%d", mode, len(w.buf))})
	return w.buf, nil
}

// Resume rebuilds an engine from a checkpoint taken by Checkpoint on an
// engine with the same query and statistics-affecting options.
// Operational options (Parallelism, tracer, chaos injector) may differ.
func Resume(q *plan.Query, cat *storage.Catalog, opt Options, data []byte) (*Engine, error) {
	e, err := New(q, cat, opt)
	if err != nil {
		return nil, err
	}
	if err := e.restore(data); err != nil {
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
	if len(data) < len(ckMagic)+8 {
		return queryErr(ErrKindCheckpoint, "truncated checkpoint")
	}
	body := data[:len(data)-8]
	if want := binary.LittleEndian.Uint64(data[len(data)-8:]); ckSum(body) != want {
		return queryErr(ErrKindCheckpoint, "checksum mismatch: checkpoint bytes corrupted")
	}
	r := &ckReader{buf: body}
	r.at = len(ckMagic)
	if v := r.byte1(); v != ckVersion {
		return queryErr(ErrKindCheckpoint, fmt.Sprintf("unsupported version %d", v))
	}
	mode := r.byte1()
	if fp := r.u64(); fp != e.fingerprint() {
		return queryErr(ErrKindCheckpoint, "fingerprint mismatch: checkpoint belongs to a different query or options")
	}
	batch := r.i()
	if batch < 0 || batch > e.opt.Batches {
		return queryErr(ErrKindCheckpoint, "batch index out of range")
	}

	noCommit := r.b()
	flips := r.i()
	if n := r.i(); n != len(e.bind.scalars) {
		return queryErr(ErrKindCheckpoint, "scalar binding count mismatch")
	}
	for _, s := range e.bind.scalars {
		s.epsBoost = r.f64()
		if mode == ckModeFull {
			s.point = r.value()
			s.rng.r.Lo = r.f64()
			s.rng.r.Hi = r.f64()
			s.rng.status = rangeStatus(r.byte1())
			s.committed.Lo = r.f64()
			s.committed.Hi = r.f64()
			s.hasCommitted = r.b()
		}
	}
	if n := r.i(); n != len(e.bind.groups) {
		return queryErr(ErrKindCheckpoint, "group binding count mismatch")
	}
	for _, g := range e.bind.groups {
		g.epsBoost = r.f64()
		if mode == ckModeFull {
			g.complete = r.b()
			for n := r.i(); n > 0 && r.err == nil; n-- {
				k := r.str()
				g.point[k] = r.value()
			}
			for n := r.i(); n > 0 && r.err == nil; n-- {
				k := r.str()
				var pr paramRange
				pr.r.Lo = r.f64()
				pr.r.Hi = r.f64()
				pr.status = rangeStatus(r.byte1())
				g.rng[k] = pr
			}
			for n := r.i(); n > 0 && r.err == nil; n-- {
				k := r.str()
				lo, hi := r.f64(), r.f64()
				g.committed[k] = rangeOf(lo, hi)
			}
		}
	}
	if n := r.i(); n != len(e.bind.sets) {
		return queryErr(ErrKindCheckpoint, "set binding count mismatch")
	}
	for _, sb := range e.bind.sets {
		sb.epsBoost = r.f64()
		if mode == ckModeFull {
			sb.complete = r.b()
			for n := r.i(); n > 0 && r.err == nil; n-- {
				k := r.str()
				sb.point[k] = r.b()
			}
			for n := r.i(); n > 0 && r.err == nil; n-- {
				k := r.str()
				sb.tri[k] = tri(r.byte1())
			}
			for n := r.i(); n > 0 && r.err == nil; n-- {
				k := r.str()
				sb.committed[k] = r.b()
			}
		}
	}
	e.bind.noCommit = noCommit
	e.bind.flips = flips

	if mode == ckModeFull {
		if n := r.i(); n != len(e.runners) {
			return queryErr(ErrKindCheckpoint, "runner count mismatch")
		}
		for _, rn := range e.runners {
			nEntries := r.i()
			if r.err != nil {
				return r.err
			}
			for i := 0; i < nEntries; i++ {
				key := r.row()
				en := &onlineEntry{
					key: key,
					n:   r.i(),
					ns:  r.i(),
				}
				en.mainW = r.floats()
				en.mainV = r.floats()
				en.bankW = r.floats()
				en.bankV = r.floats()
				nClt := r.i()
				if nClt > 0 && r.err == nil {
					en.clt = make([]cltAcc, nClt)
					for j := range en.clt {
						en.clt[j].n = r.f64()
						en.clt[j].mean = r.f64()
						en.clt[j].m2 = r.f64()
					}
				}
				if r.err != nil {
					return r.err
				}
				cols := identityCols(len(key))
				en.hash = key.HashKey(cols)
				rn.tab.insert(en)
				en.skey = key.KeyString(cols)
				rn.tab.m[en.skey] = en
				rn.tab.order = append(rn.tab.order, en.skey)
			}
			nUnc := r.i()
			if r.err != nil {
				return r.err
			}
			total := e.tables[rn.b.Input.Fact].total
			for i := 0; i < nUnc; i++ {
				row := r.row()
				weights := r.bytes()
				ord := r.i()
				if r.err != nil {
					return r.err
				}
				// The kernel re-examines cached rows at their ordinals:
				// an ordinal outside the table, or out of cache order,
				// is refused here rather than read.
				if n := len(rn.uncertain); ord < 0 || ord >= total || (n > 0 && ord < rn.uncertain[n-1].ord) {
					return queryErr(ErrKindCheckpoint, "uncertain row ordinal out of range")
				}
				if len(weights) != 0 && len(weights) != e.opt.Trials {
					return queryErr(ErrKindCheckpoint, "uncertain row weight count mismatch")
				}
				rn.uncertain = append(rn.uncertain, uncertainRow{row: row, weights: rn.arena.hold(weights), ord: ord})
			}
			rn.invalidateEval()
		}
		e.batch = batch
		// Table progress is a function of the batch index.
		for _, ts := range e.tables {
			if batch > 0 && len(ts.batches) > 0 {
				j := batch - 1
				if j >= len(ts.batches) {
					j = len(ts.batches) - 1
				}
				ts.seen = ts.starts[j] + len(ts.batches[j])
			}
		}
	}

	// Metrics come after any replay so the replayed prefix's own
	// bookkeeping is overwritten with the original run's history.
	mBatches := r.i()
	mRecomputes := r.i()
	mRows := r.i64()
	mFolds := r.i64()
	mEvict := r.i64()
	mBudgetEvict := r.i64()
	mDegradeRung := r.i()
	mMemPeak := r.i64()
	mGCPause := r.i64()
	mGCCycles := r.i64()
	var perBatch []int
	if n := r.i(); n > 0 && r.err == nil {
		perBatch = make([]int, n)
		for i := range perBatch {
			perBatch[i] = r.i()
		}
	}
	var durs []time.Duration
	if n := r.i(); n > 0 && r.err == nil {
		durs = make([]time.Duration, n)
		for i := range durs {
			durs[i] = time.Duration(r.i64())
		}
	}
	if r.err != nil {
		return r.err
	}

	if mode == ckModeReplay && batch > 0 {
		// Reprocess the prefix with the restored boosts: by the
		// failure-recovery invariant, fresh processing of batches 0..k−1
		// under the final boost values reproduces the engine state at
		// batch k exactly.
		if err := e.replayUpTo(batch - 1); err != nil {
			return err
		}
		e.batch = batch
	}
	e.metrics.Batches = mBatches
	e.metrics.Recomputes = mRecomputes
	e.metrics.RowsProcessed = mRows
	e.metrics.DeterministicFolds = mFolds
	e.metrics.UncertainEvictions = mEvict
	e.metrics.BudgetEvictions = mBudgetEvict
	e.metrics.GCPauseNS = mGCPause
	e.metrics.GCCycles = mGCCycles
	e.metrics.UncertainPerBatch = perBatch
	e.metrics.BatchDurations = durs
	e.bind.flips = flips
	// Re-engage latched degradation rungs: a resumed budget-degraded
	// query must keep running degraded (un-degrading would re-grow the
	// freed pools and break the determinism of the latch). A replay-mode
	// restore may already have re-engaged rungs deterministically during
	// prefix reprocessing; setDegradeRung is monotone, so this is safe.
	if mDegradeRung >= 1 && e.degradeRung < 1 {
		e.setDegradeRung(1)
		e.dropSegmentCache()
	}
	if mDegradeRung >= 2 {
		e.setDegradeRung(2)
	}
	e.updateDegradeReason()
	e.metrics.DegradeRung = e.degradeRung
	e.ledger.RestorePeak(mMemPeak)
	e.metrics.MemPeakBytes = e.ledger.PeakTotal()
	e.trace.Emit(Event{Kind: EvResume, Kept: batch,
		Note: fmt.Sprintf("mode=%d", mode)})
	return nil
}

// identityCols returns [0..n) for key-projection calls on stored keys.
func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// rangeOf builds a bootstrap.Range (helper keeping the reader terse).
func rangeOf(lo, hi float64) bootstrap.Range { return bootstrap.Range{Lo: lo, Hi: hi} }
