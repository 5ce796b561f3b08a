package core

import (
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/types"
)

// TestAuditInvariantsCleanRun: a recomputing nested workload run to
// completion must end with every surviving committed decision agreeing
// with the (now exact) point state — zero violations — while the
// in-flight flips that forced its recomputes are counted in DetFlips.
func TestAuditInvariantsCleanRun(t *testing.T) {
	eng, _ := profiledQ17(t)
	if v := eng.AuditInvariants(); len(v) != 0 {
		t.Fatalf("clean completed run reported violations: %+v", v)
	}
	m := eng.Metrics()
	if m.InvariantViolations != 0 {
		t.Fatalf("InvariantViolations = %d, want 0", m.InvariantViolations)
	}
	// profiledQ17 is tuned to fail at least one committed range; every
	// failure is an in-flight flip (recovered by replay).
	if m.DetFlips == 0 {
		t.Fatal("recomputing workload reported DetFlips = 0")
	}
	if m.DetFlips < m.Recomputes {
		t.Fatalf("DetFlips = %d < Recomputes = %d (each recompute needs a flip)",
			m.DetFlips, m.Recomputes)
	}
}

// TestAuditInvariantsDetectsTampering: corrupting a surviving committed
// group range to exclude its point estimate must surface as a violation
// with the offending key, a det-violation trace event, and the metrics
// count.
func TestAuditInvariantsDetectsTampering(t *testing.T) {
	eng, tr := profiledQ17(t)
	if len(eng.bind.groups) == 0 {
		t.Fatal("Q17 must have a correlated group binding")
	}
	g := eng.bind.groups[0]
	var key string
	var c committedKey[bootstrap.Range]
	for _, c = range g.committed.all(&g.keys, g.lookup) {
		if c.id >= 0 {
			key = c.str
			break
		}
	}
	if key == "" {
		t.Fatal("no committed group key with a point estimate")
	}
	f, _ := g.point[c.id].AsFloat()
	g.committed.set(&g.keys, c.id, c.key, c.key.HashKey(keyCols(len(c.key))), bootstrap.Range{Lo: f + 1, Hi: f + 2})

	vs := eng.AuditInvariants()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want exactly the tampered one: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != ViolGroupRange || v.Key != key || v.Point != f || v.Lo != f+1 {
		t.Fatalf("violation mismatch: %+v", v)
	}
	if eng.Metrics().InvariantViolations != 1 {
		t.Fatalf("InvariantViolations = %d, want 1", eng.Metrics().InvariantViolations)
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == EvDetViolation && ev.Key == key && ev.Note == ViolGroupRange {
			found = true
		}
	}
	if !found {
		t.Fatal("no det-violation trace event emitted")
	}
}

// TestBindingsFlipCounting: the three contradiction sites (scalar range
// escape, group range escape, set membership flip) each bump the flips
// counter, and reset() — the replay path — preserves it.
func TestBindingsFlipCounting(t *testing.T) {
	b := newBindings(1, 1, 1, 8)

	commit := paramRange{status: rsOK, r: bootstrap.Range{Lo: 9, Hi: 11}}
	if b.updateScalar(0, types.NewFloat(10), nullValues(8), commit) {
		t.Fatal("first scalar update must commit, not fail")
	}
	if !b.updateScalar(0, types.NewFloat(20), nullValues(8), commit) {
		t.Fatal("escaping point must report failure")
	}
	if b.flips != 1 {
		t.Fatalf("flips = %d after scalar escape, want 1", b.flips)
	}

	gk := types.Row{types.NewString("g")}
	gid, gh := b.groups[0].keys.pubKey(gk), gk.HashKey(keyCols(1))
	if b.updateGroupEntry(0, gid, gk, gh, types.NewFloat(10), commit, true) {
		t.Fatal("first group update must commit, not fail")
	}
	if !b.updateGroupEntry(0, gid, gk, gh, types.NewFloat(20), commit, true) {
		t.Fatal("escaping group point must report failure")
	}
	if b.flips != 2 {
		t.Fatalf("flips = %d after group escape, want 2", b.flips)
	}

	sk := types.Row{types.NewString("k")}
	sid, sh := b.sets[0].keys.pubKey(sk), sk.HashKey(keyCols(1))
	if b.updateSetEntry(0, sid, sk, sh, true, triTrue) {
		t.Fatal("first membership must commit, not fail")
	}
	if !b.updateSetEntry(0, sid, sk, sh, false, triFalse) {
		t.Fatal("membership flip must report failure")
	}
	if b.flips != 3 {
		t.Fatalf("flips = %d after membership flip, want 3", b.flips)
	}

	b.reset()
	if b.flips != 3 {
		t.Fatalf("reset() cleared flips (= %d); replays must not lose the count", b.flips)
	}
}

// TestAuditInvariantsSetTampering covers the set-membership audit path
// directly on bindings wired into a minimal engine-shaped check.
func TestAuditInvariantsSetTampering(t *testing.T) {
	e := &Engine{bind: newBindings(0, 0, 1, 4)}
	s := e.bind.sets[0]
	a, b := types.Row{types.NewString("a")}, types.Row{types.NewString("b")}
	s.committed.set(&s.keys, s.publishKey(a[0], true, triTrue), a, a.HashKey(keyCols(1)), true)
	// contradicted: committed member, point says no
	s.committed.set(&s.keys, s.publishKey(b[0], false, triFalse), b, b.HashKey(keyCols(1)), true)
	vs := e.AuditInvariants()
	if len(vs) != 1 || vs[0].Kind != ViolSetMembership || vs[0].Key != keyString(b) {
		t.Fatalf("want one set-membership violation for key b, got %+v", vs)
	}
	if vs[0].Committed != true || vs[0].Member != false {
		t.Fatalf("membership sides lost: %+v", vs[0])
	}
}
