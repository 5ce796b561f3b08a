package core

import (
	"fmt"
	"sort"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// Test access to bindings by canonical key string, and publication
// outside an engine.

// sortedKeys orders a string-keyed map's keys.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// publishedKeys maps each published id's canonical key string to the id.
func publishedKeys(p *pubKeys, n int) map[string]int {
	m := make(map[string]int, n)
	for id := 0; id < n; id++ {
		m[keyString(p.keyOf(id))] = id
	}
	return m
}

// idOfKey returns the published id whose canonical key string is key, or
// -1.
func idOfKey(p *pubKeys, n int, key string) int {
	for id := 0; id < n; id++ {
		if keyString(p.keyOf(id)) == key {
			return id
		}
	}
	return -1
}

// groupRepsOf is the replica vector a consumer reads for key from group
// param idx: all NULL (no evidence in any trial) where none can be
// evaluated.
func (b *bindings) groupRepsOf(idx int, key types.Row) []types.Value {
	if vs := b.groupReps(idx, b.groups[idx].keys.repID(key)); vs != nil {
		return vs
	}
	return make([]types.Value, b.trials)
}

// setRepsOf is groupRepsOf for membership: all false where none can be
// evaluated.
func (b *bindings) setRepsOf(idx int, key types.Row) []bool {
	if ms := b.setReps(idx, b.sets[idx].keys.repID(key)); ms != nil {
		return ms
	}
	return make([]bool, b.trials)
}

// pubKey returns key's id in p, adding it as a cache-only key when it
// is not there yet (a binding no engine publishes into).
func (p *pubKeys) pubKey(key types.Row) int {
	p.width = len(key)
	if id := p.id(key); id >= 0 {
		return id
	}
	x := p.extra.add(key, key.HashKey(keyCols(len(key))))
	p.nX = x + 1
	return p.nTab + x
}

// publishKey publishes one key's estimate and range outside an engine.
func (g *groupBinding) publishKey(key types.Value, point types.Value, rng paramRange) int {
	id := g.keys.pubKey(types.Row{key})
	for len(g.point) < id {
		g.publish(len(g.point), types.Null, paramRange{status: rsUnknown})
	}
	g.publish(id, point, rng)
	return id
}

// publishKey publishes one key's membership outside an engine.
func (s *setBinding) publishKey(key types.Value, point bool, t tri) int {
	id := s.keys.pubKey(types.Row{key})
	for len(s.point) < id {
		s.publish(len(s.point), false, triUnknown)
	}
	s.publish(id, point, t)
	return id
}

// paramRunner returns the engine's correlated or membership block.
func paramRunner(tb testing.TB, eng *Engine) *blockRunner {
	tb.Helper()
	for _, r := range eng.runners {
		if r.b.Kind == plan.GroupScalarBlock || r.b.Kind == plan.SetBlock {
			return r
		}
	}
	tb.Fatal("query has no correlated or membership block")
	return nil
}

// TestBindingUpdateAllocs gates range maintenance: once warm, a
// parameter block's republication — estimates, CLT and bootstrap
// ranges, tri-state HAVING and committed-decision checks, all by group
// id — allocates nothing, however many groups it covers. The legs are
// Q18's membership block (GROUP BY orderkey HAVING SUM(quantity) >
// 170) and Q17's per-part correlated AVG.
func TestBindingUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name  string
		sql   string
		parts int
	}{
		{"set-having", membershipSQL, 50},
		{"correlated", correlatedSQL, 800},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := bindingBenchEngine(t, tc.sql, tc.parts)
			defer eng.Close()
			r := paramRunner(t, eng)
			groups := r.eval().numVisible()
			if groups < 200 {
				t.Fatalf("%d groups; the shape exercises nothing", groups)
			}
			eng.updateBinding(r) // warm: slabs and scratch sized
			allocs := testing.AllocsPerRun(5, func() { eng.updateBinding(r) })
			if allocs != 0 {
				t.Errorf("%.0f allocs per updateBinding over %d groups, want 0", allocs, groups)
			}
		})
	}
}

// bindingBenchEngine runs sql over a 20k-row synthetic lineitem table
// with the given number of parts for 10 of 20 mini-batches: mid-run, as
// snapshotBenchEngine.
func bindingBenchEngine(tb testing.TB, sql string, parts int) *Engine {
	tb.Helper()
	cat := synthCatalog(20000, parts, 91)
	q, err := plan.Compile(sql, cat)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 20, Trials: 100, Seed: 70, Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for eng.Batch() < 10 {
		if _, err := eng.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

// threeLevelCatalog builds the tables of threeLevelQueries: ta feeds the
// innermost scalar, tb the membership or correlated block, tr the root.
func threeLevelCatalog(seed uint64) *storage.Catalog {
	rng := bootstrap.NewRNG(seed)
	a := storage.NewTable("ta", types.NewSchema("z", types.KindFloat))
	for i := 0; i < 3000; i++ {
		_ = a.Append(types.Row{types.NewFloat(rng.Float64() * 10)})
	}
	b := storage.NewTable("tb", types.NewSchema("k", types.KindInt, "y", types.KindFloat))
	for i := 0; i < 400; i++ {
		_ = b.Append(types.Row{types.NewInt(int64(rng.Intn(60))), types.NewFloat(rng.Float64() * 10)})
	}
	r := storage.NewTable("tr", types.NewSchema("k", types.KindInt, "v", types.KindFloat))
	for i := 0; i < 2000; i++ {
		_ = r.Append(types.Row{types.NewInt(int64(rng.Intn(70))), types.NewFloat(rng.Float64() * 10)})
	}
	cat := storage.NewCatalog()
	cat.Put(a)
	cat.Put(b)
	cat.Put(r)
	return cat
}

// liveOrphans counts a commit set's live orphan decisions.
func liveOrphans[C any](c *commitSet[C]) int {
	n := 0
	for _, ok := range c.live {
		if ok {
			n++
		}
	}
	return n
}

// threeLevelQueries nest a membership or correlated block with its own
// uncertain predicate (over the innermost scalar) under the root.
var threeLevelQueries = []string{
	`SELECT COUNT(*), SUM(v) FROM tr WHERE k IN
		(SELECT k FROM tb WHERE y > (SELECT AVG(z) FROM ta) GROUP BY k HAVING COUNT(*) > 2)`,
	`SELECT COUNT(*), SUM(v) FROM tr o WHERE v <
		(SELECT AVG(y) FROM tb i WHERE i.k = o.k AND y > (SELECT AVG(z) FROM ta))`,
}

// TestPublishedDecisionsAreCommitted: after every Step, each decided
// publication of a correlated or membership binding — an OK range, a
// decided membership — is backed by a committed decision that holds its
// point. The middle table is read whole in the first batch, so its
// block is complete while its rows are still uncertain: cache-only
// groups then commit exact decisions, which must survive their ids
// changing batch to batch and the groups joining the table (commitSet's
// orphans); the test requires that case to occur. The final answer must
// equal exec.Run's and the invariant audit must be clean.
func TestPublishedDecisionsAreCommitted(t *testing.T) {
	orphans := 0
	for qi, sql := range threeLevelQueries {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, p := range []int{1, 2} {
				label := fmt.Sprintf("q%d/seed %d/P=%d", qi, seed, p)
				cat := threeLevelCatalog(seed)
				q, err := plan.Compile(sql, cat)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := exec.Run(q, cat)
				if err != nil {
					t.Fatal(err)
				}
				q, _ = plan.Compile(sql, cat)
				eng, err := New(q, cat, WithSeams(Options{Batches: 8, Trials: 20, Seed: 3 * seed,
					FullTables: []string{"tb"}, MinGroupSupport: 1,
					Parallelism: p}, Seams{PartRows: 16}))
				if err != nil {
					t.Fatal(err)
				}
				var last *Snapshot
				for !eng.Done() {
					if last, err = eng.Step(); err != nil {
						t.Fatal(err)
					}
					for _, g := range eng.bind.groups {
						orphans += liveOrphans(&g.committed)
						byID := map[int]bootstrap.Range{}
						for _, c := range g.committed.all(&g.keys, g.lookup) {
							byID[c.id] = c.v
						}
						for id, r := range g.rng {
							if r.status != rsOK {
								continue
							}
							c, ok := byID[id]
							if f, _ := g.point[id].AsFloat(); !ok || !c.Contains(f) {
								t.Fatalf("%s: group %s publishes %+v at %v, committed %+v (%v)",
									label, keyString(g.keys.keyOf(id)), r.r, g.point[id], c, ok)
							}
						}
					}
					for _, s := range eng.bind.sets {
						orphans += liveOrphans(&s.committed)
						byID := map[int]bool{}
						for _, c := range s.committed.all(&s.keys, s.lookup) {
							byID[c.id] = c.v
						}
						for id, tr := range s.tri {
							if tr == triUnknown {
								continue
							}
							if c, ok := byID[id]; !ok || c != s.point[id] {
								t.Fatalf("%s: key %s publishes %v (member %v), committed %v (%v)",
									label, keyString(s.keys.keyOf(id)), tr, s.point[id], c, ok)
							}
						}
					}
				}
				if vs := eng.AuditInvariants(); len(vs) != 0 {
					t.Fatalf("%s: %d invariant violations: %+v", label, len(vs), vs)
				}
				rowsEqual(t, last.ValueRows(), exact.Rows, 0, 1e-9)
				eng.Close()
			}
		}
	}
	if orphans == 0 {
		t.Fatal("no cache-only group committed a decision; the shapes exercise nothing")
	}
}
