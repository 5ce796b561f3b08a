package core

// Deterministic-set invariant monitor. G-OLA's correctness argument
// (§3.2/§4) rests on two commitments: once a variation range is
// published, the converging estimate must stay inside it, and once a
// tuple's predicate decision is committed deterministically it must
// never flip. The engine already detects in-flight contradictions
// (range failures) and recovers by replaying the prefix with widened
// ranges — those recovered contradictions are counted as *flips*
// (Metrics.DetFlips, EvRangeFailure trace events). What nothing
// re-verified until now is the end state: every commitment that
// survived to the end of the run must agree with the exact answer. A
// committed decision that silently disagrees would mean delta
// maintenance folded (or dropped) tuples it should not have — the
// failure mode the OLA literature flags as "unvalidated error
// guarantees". AuditInvariants is that machine check: it re-walks every
// surviving commitment against the current point state and reports each
// contradiction as a Violation, a metrics count, and an EvDetViolation
// trace event. After the final mini-batch the point state is exact, so
// a clean run must produce zero violations (enforced by the audit gate
// in scripts/check.sh).

// ViolationKind names the class of committed decision that was
// contradicted.
const (
	// ViolScalarRange: an uncorrelated scalar subquery's point estimate
	// sits outside the intersection of its committed variation ranges.
	ViolScalarRange = "scalar-range"
	// ViolGroupRange: a correlated per-group estimate escaped the range
	// committed for its group key.
	ViolGroupRange = "group-range"
	// ViolSetMembership: an IN-subquery key's point membership
	// contradicts the committed deterministic membership decision.
	ViolSetMembership = "set-membership"
)

// Violation is one committed deterministic decision contradicted by the
// engine's current point state. At completion the point state is exact,
// so any violation is a statistical-correctness bug, not noise.
type Violation struct {
	Block int     `json:"block"`
	Kind  string  `json:"kind"`
	Key   string  `json:"key,omitempty"`
	Point float64 `json:"point"`
	Lo    float64 `json:"lo,omitempty"`
	Hi    float64 `json:"hi,omitempty"`
	// Member/Committed carry the membership sides of a set violation.
	Member    bool `json:"member,omitempty"`
	Committed bool `json:"committed,omitempty"`
}

// AuditInvariants re-checks every surviving committed decision against
// the engine's current point estimates and returns the contradictions
// in deterministic order (block, then key). It may be called after any
// Step — the inline failure path keeps commitments consistent
// batch-to-batch, so a non-empty result at any point indicates a bug —
// but the decisive call is after Done(), when points are exact.
// Each violation is also emitted as an EvDetViolation trace event;
// Metrics.InvariantViolations reflects the most recent audit.
func (e *Engine) AuditInvariants() []Violation {
	var out []Violation
	b := e.bind
	for idx, s := range b.scalars {
		if !s.hasCommitted {
			continue
		}
		if f, ok := s.point.AsFloat(); ok && !s.committed.Contains(f) {
			out = append(out, Violation{
				Block: blockOf(b.scalarBlocks, idx), Kind: ViolScalarRange,
				Point: f, Lo: s.committed.Lo, Hi: s.committed.Hi,
			})
		}
	}
	for idx, g := range b.groups {
		for _, c := range g.committed.all(&g.keys, g.lookup) {
			if c.id < 0 {
				continue
			}
			if f, okf := g.point[c.id].AsFloat(); okf && !c.v.Contains(f) {
				out = append(out, Violation{
					Block: blockOf(b.groupBlocks, idx), Kind: ViolGroupRange, Key: c.str,
					Point: f, Lo: c.v.Lo, Hi: c.v.Hi,
				})
			}
		}
	}
	for idx, s := range b.sets {
		for _, c := range s.committed.all(&s.keys, s.lookup) {
			if member := c.id >= 0 && s.point[c.id]; member != c.v {
				out = append(out, Violation{
					Block: blockOf(b.setBlocks, idx), Kind: ViolSetMembership, Key: c.str,
					Member: member, Committed: c.v,
				})
			}
		}
	}
	for _, v := range out {
		e.trace.Emit(Event{Kind: EvDetViolation, Block: v.Block, Key: v.Key,
			Point: v.Point, Lo: v.Lo, Hi: v.Hi, Note: v.Kind})
	}
	e.metrics.InvariantViolations = len(out)
	return out
}
