package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fluodb/internal/chaos"
	"fluodb/internal/plan"
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
	cat := determinismCatalog(6*2048, 347)
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

// TestCheckpointResumeFull exercises the full (state-serializing) mode:
// every aggregate in this query is banked, so the checkpoint carries the
// tables verbatim and resume does no replay.
func TestCheckpointResumeFull(t *testing.T) {
	o := Options{Batches: 6, Trials: 32, Seed: 419, Parallelism: 2, ParallelThreshold: 128}
	roundTrip(t, "full", chaosSQL, o, 3)
}

// TestCheckpointResumeReplay exercises the replay mode: MIN is not a
// banked aggregate, so the checkpoint stores only the decisions and
// resume re-derives the state by replaying the prefix.
func TestCheckpointResumeReplay(t *testing.T) {
	sql := `SELECT a, MIN(x), MAX(x), SUM(x) FROM facts GROUP BY a`
	o := Options{Batches: 6, Trials: 32, Seed: 419, Parallelism: 2, ParallelThreshold: 128}
	roundTrip(t, "replay", sql, o, 3)
}

// TestCheckpointUnderChaos: a checkpoint taken mid-run with fault
// injection active resumes into the same bit-identical stream (resume
// itself runs fault-free; the faults already contained before the
// checkpoint must leave no trace in the state).
func TestCheckpointUnderChaos(t *testing.T) {
	o := Options{
		Batches: 6, Trials: 32, Seed: 419, Parallelism: 4, ParallelThreshold: 128,
		Chaos: chaos.New(chaos.Config{Seed: 21, PanicProb: 0.25, CorruptProb: 0.15}),
	}
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

	// Version 1 persisted a degradation rung of a different ladder, and
	// version 2 was written under the one-hash-per-weight stream (a
	// replay-mode resume would regenerate different weights): both are
	// refused by the version check, not the checksum (the trailer is
	// recomputed over the rewritten version byte).
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), ck...)
		old[len(ckMagic)] = v
		binary.LittleEndian.PutUint64(old[len(old)-8:], ckSum(old[:len(old)-8]))
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
	oP.ParallelThreshold = 128
	res, err := Resume(q, cat, oP, ck)
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
	pooled := Options{Batches: 6, Trials: 32, Seed: 11, Parallelism: 4, ParallelThreshold: 128}

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
