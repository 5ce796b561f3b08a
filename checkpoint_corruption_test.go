package fluodb_test

import (
	"errors"
	"testing"

	"fluodb"
	"fluodb/workloads"
)

// Checkpoint bytes arriving over a network or from disk can be damaged
// anywhere: the magic/version header, the options fingerprint, the
// payload, or the FNV-1a trailer. ResumeOnline must refuse every such
// mutation with a typed ErrKindCheckpoint error — never panic, and
// never resume from silently-wrong state.

// corruptionCheckpoint runs a query two batches in and returns its
// checkpoint plus the context to resume it.
func corruptionCheckpoint(t *testing.T) (*fluodb.DB, string, fluodb.OnlineOptions, []byte) {
	t.Helper()
	db := fluodb.Open()
	workloads.AttachConviva(db, 4000, 17)
	const sql = `SELECT device, COUNT(*), AVG(play_time) FROM sessions GROUP BY device`
	opt := fluodb.OnlineOptions{Batches: 4, Trials: 20, Seed: 99}
	oq, err := db.QueryOnline(sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer oq.Close()
	for i := 0; i < 2; i++ {
		if _, err := oq.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := oq.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return db, sql, opt, ck
}

// mustRefuse asserts a damaged checkpoint is rejected with the typed
// error (recover guards against the "never panic" half of the contract).
func mustRefuse(t *testing.T, db *fluodb.DB, sql string, opt fluodb.OnlineOptions, ck []byte, label string) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("%s: ResumeOnline panicked: %v", label, v)
		}
	}()
	oq, err := db.ResumeOnline(sql, opt, ck)
	if err == nil {
		oq.Close()
		t.Fatalf("%s: corrupted checkpoint accepted", label)
	}
	if !errors.Is(err, fluodb.ErrKindCheckpoint) {
		t.Fatalf("%s: want ErrKindCheckpoint, got %v", label, err)
	}
}

// TestCheckpointCorruptionTable flips bytes across every structural
// region of the checkpoint format and sweeps truncations.
func TestCheckpointCorruptionTable(t *testing.T) {
	db, sql, opt, ck := corruptionCheckpoint(t)

	// Sanity: the pristine bytes resume.
	oq, err := db.ResumeOnline(sql, opt, ck)
	if err != nil {
		t.Fatalf("pristine checkpoint refused: %v", err)
	}
	oq.Close()

	flip := func(at int) []byte {
		c := append([]byte(nil), ck...)
		c[at] ^= 0x40
		return c
	}
	regions := []struct {
		label string
		at    int
	}{
		{"magic", 0},
		{"magic-tail", 4},
		{"version", 5},
		{"fingerprint", 6},
		{"fingerprint-tail", 13},
		{"batch-index", 14},
		{"no-commit", 22},
		{"flips", 23},
		{"payload-early", len(ck) / 4},
		{"payload-mid", len(ck) / 2},
		{"payload-late", len(ck) - 16},
		{"trailer-checksum", len(ck) - 4},
		{"trailer-last", len(ck) - 1},
	}
	for _, r := range regions {
		mustRefuse(t, db, sql, opt, flip(r.at), "flip:"+r.label)
	}

	// Truncations: empty, header-only, mid-payload, missing trailer.
	for _, n := range []int{0, 3, 5, 6, 14, 22, len(ck) / 2, len(ck) - 8, len(ck) - 1} {
		mustRefuse(t, db, sql, opt, ck[:n], "truncate")
	}

	// Fingerprint mismatch through legitimate bytes: a checkpoint from a
	// different seed must be refused, not merged into the wrong query.
	other := opt
	other.Seed = 100
	oq2, err := db.QueryOnline(sql, other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oq2.Step(); err != nil {
		t.Fatal(err)
	}
	ck2, err := oq2.Checkpoint()
	oq2.Close()
	if err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, db, sql, opt, ck2, "foreign-fingerprint")
}

// TestCheckpointCorruptionSweep XOR-flips one byte at every offset of
// the checkpoint (a deterministic exhaustive fuzz): each mutation must
// either be refused with the typed error or produce a resume whose
// remaining snapshots are identical to the undamaged resume — a flip
// the checksum cannot see (none exist for FNV-1a over these sizes, but
// the sweep proves it) must at least not corrupt the answer.
func TestCheckpointCorruptionSweep(t *testing.T) {
	db, sql, opt, ck := corruptionCheckpoint(t)
	step := 1
	if testing.Short() {
		step = 17
	}
	for at := 0; at < len(ck); at += step {
		c := append([]byte(nil), ck...)
		c[at] ^= 0x01
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("offset %d: ResumeOnline panicked: %v", at, v)
				}
			}()
			oq, err := db.ResumeOnline(sql, opt, c)
			if err == nil {
				oq.Close()
				t.Fatalf("offset %d: single-bit corruption accepted", at)
			}
			if !errors.Is(err, fluodb.ErrKindCheckpoint) {
				t.Fatalf("offset %d: want ErrKindCheckpoint, got %v", at, err)
			}
		}()
	}
}
