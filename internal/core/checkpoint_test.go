package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"fluodb/internal/chaos"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
)

// stepTo runs exactly k mini-batches on a fresh engine and returns it
// plus the snapshots it produced.
func stepTo(t *testing.T, eng *Engine, k int) []*Snapshot {
	t.Helper()
	var snaps []*Snapshot
	for i := 0; i < k; i++ {
		s, err := eng.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		snaps = append(snaps, s)
	}
	return snaps
}

// finish drains an engine to completion.
func finish(t *testing.T, eng *Engine) []*Snapshot {
	t.Helper()
	var snaps []*Snapshot
	for !eng.Done() {
		s, err := eng.Step()
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		snaps = append(snaps, s)
	}
	return snaps
}

// roundTrip checkpoints eng at its current batch, resumes a second
// engine from the bytes, verifies the resumed engine re-serializes to
// byte-identical state, then runs both to completion and demands
// bit-identical remaining snapshots.
func roundTrip(t *testing.T, label, sql string, o Options, k int) {
	t.Helper()
	roundTripOn(t, label, determinismCatalog(6*2048, 347), sql, o, k)
}

// roundTripOn is roundTrip over cat.
func roundTripOn(t *testing.T, label string, cat *storage.Catalog, sql string, o Options, k int) {
	t.Helper()
	q, err := plan.Compile(sql, cat)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer eng.Close()
	stepTo(t, eng, k)

	ck1, err := eng.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", label, err)
	}

	res, err := Resume(q, cat, o, ck1)
	if err != nil {
		t.Fatalf("%s: resume: %v", label, err)
	}
	defer res.Close()

	// Byte-identical re-serialization: restored state must be exactly the
	// state that was saved, not merely equivalent.
	ck2, err := res.Checkpoint()
	if err != nil {
		t.Fatalf("%s: re-checkpoint: %v", label, err)
	}
	if !bytes.Equal(ck1, ck2) {
		t.Fatalf("%s: resumed engine re-serializes differently (%d vs %d bytes)",
			label, len(ck1), len(ck2))
	}

	rest := finish(t, eng)
	restResumed := finish(t, res)
	compareSnapshots(t, label+"/continuation", rest, restResumed)
}

// resign recomputes a checkpoint's FNV-1a trailer after an edit, as an
// attacker can: the checksum catches accidents, not tampering.
func resign(ck []byte) {
	binary.LittleEndian.PutUint64(ck[len(ck)-8:], ckSum(ck[:len(ck)-8]))
}

// TestCheckpointResumeFull round-trips a query whose aggregates are all
// banked (SUM/COUNT/AVG under a scalar subquery). The name predates the
// single format: the checkpoint stores decisions only, and resume
// replays the prefix like any other shape.
func TestCheckpointResumeFull(t *testing.T) {
	o := WithSeams(Options{Batches: 6, Trials: 32, Seed: 419, Parallelism: 2}, Seams{PartRows: 128})
	roundTrip(t, "banked", chaosSQL, o, 3)
}

// TestCheckpointResumeReplay round-trips a query with opaque aggregates
// (MIN/MAX): the checkpoint stores only the decisions and resume
// re-derives the state by replaying the prefix.
func TestCheckpointResumeReplay(t *testing.T) {
	sql := `SELECT a, MIN(x), MAX(x), SUM(x) FROM facts GROUP BY a`
	o := WithSeams(Options{Batches: 6, Trials: 32, Seed: 419, Parallelism: 2}, Seams{PartRows: 128})
	roundTrip(t, "min-max", sql, o, 3)
}

// TestCheckpointResumeKeyed resumes the keyed tri-state shapes — a
// per-group correlated threshold and a membership — whose cached rows
// the replayed prefix re-derives and the resumed engine re-examines by
// kernel, at P=1 and P=4: mid-run, and right after the batch whose range
// failure forced a recompute. Every continuation is bit-identical to
// the uninterrupted run.
func TestCheckpointResumeKeyed(t *testing.T) {
	cat := driftCatalog()
	for _, tc := range []struct{ name, sql string }{
		{"correlated", driftCorrelatedSQL},
		{"in-set", driftMembershipSQL},
	} {
		for _, p := range []int{1, 4} {
			o := driftOptions(p)
			// The first batch after which a recompute has happened.
			q, err := plan.Compile(tc.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(q, cat, o)
			if err != nil {
				t.Fatal(err)
			}
			const mid = 6
			recomputed, cached := 0, map[int]int{}
			for k := 1; k <= mid; k++ {
				stepTo(t, eng, 1)
				if recomputed == 0 && eng.Metrics().Recomputes > 0 {
					recomputed = k
				}
				cached[k] = len(eng.runners[len(eng.runners)-1].uncertain)
			}
			eng.Close()
			if recomputed == 0 || recomputed == mid {
				t.Fatalf("%s: a recompute must force before batch %d (at %d)", tc.name, mid, recomputed)
			}
			for _, k := range []int{recomputed, mid} {
				if cached[k] == 0 {
					t.Fatalf("%s: batch %d leaves no cached rows to resume", tc.name, k)
				}
			}
			roundTripOn(t, fmt.Sprintf("%s/P=%d/after-recompute", tc.name, p), cat, tc.sql, o, recomputed)
			roundTripOn(t, fmt.Sprintf("%s/P=%d/mid", tc.name, p), cat, tc.sql, o, mid)
		}
	}
}

// TestCheckpointUnderChaos: a checkpoint taken mid-run with fault
// injection active resumes into the same bit-identical stream (resume
// itself runs fault-free; the faults already contained before the
// checkpoint must leave no trace in the state).
func TestCheckpointUnderChaos(t *testing.T) {
	o := WithSeams(Options{Batches: 6, Trials: 32, Seed: 419, Parallelism: 4}, Seams{
		PartRows: 128,
		Chaos:    chaos.New(chaos.Config{Seed: 21, PanicProb: 0.25, CorruptProb: 0.15}),
	})
	roundTrip(t, "chaos", chaosSQL, o, 3)
}

// TestCheckpointAtBoundaries covers the edges: checkpoint before any
// batch and after the final batch.
func TestCheckpointAtBoundaries(t *testing.T) {
	o := Options{Batches: 4, Trials: 16, Seed: 5}
	roundTrip(t, "start", chaosSQL, o, 0)
	roundTrip(t, "end", chaosSQL, o, 4)
}

// TestCheckpointMetricsSurvive pins that cumulative metrics (rows,
// folds, evictions) travel with the checkpoint rather than resetting.
func TestCheckpointMetricsSurvive(t *testing.T) {
	cat := determinismCatalog(6*2048, 347)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Batches: 6, Trials: 16, Seed: 31}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stepTo(t, eng, 3)
	want := eng.Metrics()
	ck, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(q, cat, o, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got := res.Metrics()
	if got.Batches != want.Batches || got.RowsProcessed != want.RowsProcessed ||
		got.DeterministicFolds != want.DeterministicFolds ||
		got.UncertainEvictions != want.UncertainEvictions ||
		got.Recomputes != want.Recomputes || got.DetFlips != want.DetFlips {
		t.Fatalf("metrics diverged across resume:\n  saved   %+v\n  resumed %+v", want, got)
	}
}

// TestCheckpointRejections pins the typed failure modes of restore.
func TestCheckpointRejections(t *testing.T) {
	cat := determinismCatalog(2048, 349)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Batches: 4, Trials: 16, Seed: 7}
	eng, err := New(q, cat, o)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stepTo(t, eng, 2)
	ck, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	wantCkErr := func(label string, data []byte, opt Options, query *plan.Query) error {
		t.Helper()
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("%s: resume panicked: %v", label, v)
			}
		}()
		res, err := Resume(query, cat, opt, data)
		if err == nil {
			res.Close()
			t.Fatalf("%s: resume accepted, want checkpoint error", label)
		}
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Kind != ErrKindCheckpoint {
			t.Fatalf("%s: got %v, want ErrKindCheckpoint", label, err)
		}
		return err
	}

	wantCkErr("empty", nil, o, q)
	wantCkErr("bad magic", []byte("NOTACKPT-----"), o, q)
	wantCkErr("truncated", ck[:len(ck)/2], o, q)

	corrupt := append([]byte(nil), ck...)
	corrupt[len(corrupt)-1] ^= 0xFF
	wantCkErr("trailing corruption", corrupt, o, q)

	// Hostile fields: FNV is no MAC, so a re-signed checkpoint can hold
	// any word. The metrics series close the payload — per-batch
	// uncertain counts, then batch durations, one word per entry — and a
	// count the remaining bytes cannot hold is refused before anything is
	// sized by it. A boost below its initial 1 and a rung past the
	// ladder are refused too.
	m := eng.Metrics()
	durAt := len(ck) - 8 - 8*len(m.BatchDurations) - 8
	perAt := durAt - 8*len(m.UncertainPerBatch) - 8
	rungAt := perAt - 4*8
	boostAt := len(ckMagic) + 1 + 8 + 8 + 1 + 8 + 8 // first scalar's boost
	for _, tc := range []struct {
		label string
		at    int
		n     uint64
		want  string
	}{
		{"durations length 1<<61", durAt, 1 << 61, "length out of range"},
		{"durations length negative", durAt, 1 << 63, "length out of range"},
		{"per-batch length 1<<61", perAt, 1 << 61, "length out of range"},
		{"per-batch length past the end", perAt, uint64(len(ck)), "length out of range"},
		{"boost NaN", boostAt, math.Float64bits(math.NaN()), "boost out of range"},
		{"boost below 1", boostAt, math.Float64bits(0.5), "boost out of range"},
		{"rung past the ladder", rungAt, 3, "rung out of range"},
	} {
		bad := append([]byte(nil), ck...)
		binary.LittleEndian.PutUint64(bad[tc.at:], tc.n)
		resign(bad)
		if err := wantCkErr(tc.label, bad, o, q); !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s refused by %v, want %q", tc.label, err, tc.want)
		}
	}

	// Version 1 persisted a degradation rung of a different ladder,
	// version 2 was written under the one-hash-per-weight stream (a
	// replay would regenerate different weights), version 3 stored a
	// replica weight where uncertain rows later carried their fact
	// ordinal, version 4 carried a mode byte and, in full mode, the
	// tables and uncertain cache, and versions 5 and 6 were written under
	// per-row Poisson lanes for every group, where a resume would now
	// replay moment-drawn lanes for the large ones — a different stream:
	// all are refused by the version check, not the checksum (the trailer
	// is recomputed over the rewritten version byte).
	for _, v := range []byte{1, 2, 3, 4, 5, 6} {
		old := append([]byte(nil), ck...)
		old[len(ckMagic)] = v
		resign(old)
		label := fmt.Sprintf("version %d refused", v)
		if err := wantCkErr(label, old, o, q); !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("%s by %v, want the version check", label, err)
		}
	}

	// Fingerprint: different statistical configuration must be refused.
	o2 := o
	o2.Trials = 64
	wantCkErr("trials mismatch", ck, o2, q)
	o3 := o
	o3.Seed = 8
	wantCkErr("seed mismatch", ck, o3, q)

	// Fingerprint: different query shape must be refused.
	q2, err := plan.Compile(`SELECT a, SUM(x) FROM facts GROUP BY a`, cat)
	if err != nil {
		t.Fatal(err)
	}
	wantCkErr("query mismatch", ck, o, q2)

	// Parallelism is execution strategy, not state: it may differ.
	oP := o
	oP.Parallelism = 4
	res, err := Resume(q, cat, WithSeams(oP, Seams{PartRows: 128}), ck)
	if err != nil {
		t.Fatalf("parallelism change rejected: %v", err)
	}
	res.Close()
}

// TestCheckpointCrossParallelism: a checkpoint taken by a serial engine
// may be resumed by a pooled one — parallelism is execution strategy,
// not state, so the fingerprint admits it. The continuations agree on
// groups and point estimates; bit-identity is NOT promised across a
// parallelism change (part merges sum floats in a different order), so
// CIs are only required to be numerically close.
func TestCheckpointCrossParallelism(t *testing.T) {
	cat := determinismCatalog(6*2048, 353)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	serial := Options{Batches: 6, Trials: 32, Seed: 11, Parallelism: 1}
	pooled := WithSeams(Options{Batches: 6, Trials: 32, Seed: 11, Parallelism: 4}, Seams{PartRows: 128})

	engS, err := New(q, cat, serial)
	if err != nil {
		t.Fatal(err)
	}
	defer engS.Close()
	stepTo(t, engS, 3)
	ck, err := engS.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(q, cat, pooled, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rest, restResumed := finish(t, engS), finish(t, res)
	if len(rest) != len(restResumed) {
		t.Fatalf("continuation lengths differ: %d vs %d", len(rest), len(restResumed))
	}
	const tol = 1e-9
	for i := range rest {
		a, b := rest[i], restResumed[i]
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("batch %d: %d vs %d rows", a.Batch, len(a.Rows), len(b.Rows))
		}
		for r := range a.Rows {
			for c := range a.Rows[r] {
				ca, cb := a.Rows[r][c], b.Rows[r][c]
				fa, oka := ca.Value.AsFloat()
				fb, okb := cb.Value.AsFloat()
				switch {
				case oka != okb:
					t.Fatalf("batch %d row %d col %d: value kinds differ", a.Batch, r, c)
				case !oka:
					if ca.Value != cb.Value {
						t.Fatalf("batch %d row %d col %d: %v vs %v", a.Batch, r, c, ca.Value, cb.Value)
					}
				case !closeRel(fa, fb, tol):
					t.Fatalf("batch %d row %d col %d: point %v vs %v", a.Batch, r, c, fa, fb)
				}
				if ca.HasCI != cb.HasCI {
					t.Fatalf("batch %d row %d col %d: HasCI differs", a.Batch, r, c)
				}
				if ca.HasCI && (!closeRel(ca.CI.Lo, cb.CI.Lo, tol) || !closeRel(ca.CI.Hi, cb.CI.Hi, tol)) {
					t.Fatalf("batch %d row %d col %d: CI %+v vs %+v", a.Batch, r, c, ca.CI, cb.CI)
				}
			}
		}
	}
}

func closeRel(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bm := b; bm < 0 {
		if -bm > m {
			m = -bm
		}
	} else if bm > m {
		m = bm
	}
	return d <= tol*(1+m)
}

// FuzzResume: checkpoint bytes from anywhere must end in a resumed
// engine that runs to completion or in a typed ErrKindCheckpoint, never
// a panic. The fuzzer re-signs the FNV-1a trailer on every input, so
// mutations reach the decoder past the checksum. The seed corpus — the
// pristine checkpoint and one flip per region of the corruption table —
// runs under plain go test.
func FuzzResume(f *testing.F) {
	cat := determinismCatalog(2048, 349)
	q, err := plan.Compile(chaosSQL, cat)
	if err != nil {
		f.Fatal(err)
	}
	o := Options{Batches: 4, Trials: 16, Seed: 7, Parallelism: 1}
	eng, err := New(q, cat, o)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Step(); err != nil {
			f.Fatal(err)
		}
	}
	ck, err := eng.Checkpoint()
	eng.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ck)
	for _, at := range []int{0, 4, 5, 6, 13, 14, 22, 23, len(ck) / 4, len(ck) / 2, len(ck) - 16} {
		c := append([]byte(nil), ck...)
		c[at] ^= 0x40
		f.Add(c)
	}
	for _, n := range []int{0, 5, 14, len(ck) / 2, len(ck) - 8} {
		f.Add(append([]byte(nil), ck[:n]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			resign(data)
		}
		res, err := Resume(q, cat, o, data)
		if err != nil {
			var qe *QueryError
			if !errors.As(err, &qe) || qe.Kind != ErrKindCheckpoint {
				t.Fatalf("got %v, want ErrKindCheckpoint", err)
			}
			return
		}
		defer res.Close()
		for !res.Done() {
			if _, err := res.Step(); err != nil {
				t.Fatalf("resumed engine: %v", err)
			}
		}
	})
}
