package plan

import (
	"strings"
	"testing"

	"fluodb/internal/expr"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

func testCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	cat.Put(storage.NewTable("sessions", types.NewSchema(
		"session_id", types.KindInt,
		"buffer_time", types.KindFloat,
		"play_time", types.KindFloat,
		"country", types.KindString,
	)))
	cat.Put(storage.NewTable("lineitem", types.NewSchema(
		"orderkey", types.KindInt,
		"partkey", types.KindInt,
		"suppkey", types.KindInt,
		"quantity", types.KindFloat,
		"extendedprice", types.KindFloat,
	)))
	cat.Put(storage.NewTable("parts", types.NewSchema(
		"partkey", types.KindInt,
		"brand", types.KindString,
	)))
	return cat
}

func compile(t *testing.T, sql string) *Query {
	t.Helper()
	q, err := Compile(sql, testCatalog())
	if err != nil {
		t.Fatalf("Compile(%s): %v", sql, err)
	}
	return q
}

func compileErr(t *testing.T, sql, wantSubstr string) {
	t.Helper()
	_, err := Compile(sql, testCatalog())
	if err == nil {
		t.Fatalf("Compile(%s) should fail", sql)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Errorf("Compile(%s) error = %q, want substring %q", sql, err, wantSubstr)
	}
}

const sbiSQL = `SELECT AVG(play_time) FROM sessions
	WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`

func TestCompileSBI(t *testing.T) {
	q := compile(t, sbiSQL)
	if len(q.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(q.Blocks))
	}
	inner, root := q.Blocks[0], q.Blocks[1]
	if q.Root != root || root.Kind != RootBlock {
		t.Fatal("root must be last")
	}
	if inner.Kind != ScalarBlock || inner.ParamIdx != 0 {
		t.Fatalf("inner = %v paramIdx=%d", inner.Kind, inner.ParamIdx)
	}
	if len(q.ScalarBlocks) != 1 || q.ScalarBlocks[0] != inner {
		t.Fatal("scalar param table")
	}
	if len(inner.Aggs) != 1 || inner.Aggs[0].Name != "AVG" {
		t.Fatalf("inner aggs = %+v", inner.Aggs)
	}
	if !expr.HasParams(root.Where) {
		t.Error("root WHERE must reference the scalar param")
	}
	if len(root.Aggs) != 1 || root.Aggs[0].Name != "AVG" {
		t.Fatalf("root aggs = %+v", root.Aggs)
	}
	if len(root.Deps) != 1 || root.Deps[0] != inner.ID {
		t.Errorf("deps = %v", root.Deps)
	}
	if root.UncertainPredicates() != 1 {
		t.Errorf("uncertain predicates = %d", root.UncertainPredicates())
	}
}

const q17SQL = `SELECT SUM(extendedprice) / 7.0 AS avg_yearly FROM lineitem l
	WHERE quantity < (SELECT 0.2 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`

func TestCompileQ17Correlated(t *testing.T) {
	q := compile(t, q17SQL)
	if len(q.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(q.Blocks))
	}
	inner := q.Blocks[0]
	if inner.Kind != GroupScalarBlock {
		t.Fatalf("inner kind = %v", inner.Kind)
	}
	if len(q.GroupBlocks) != 1 {
		t.Fatal("group param table")
	}
	if len(inner.GroupBy) != 1 {
		t.Fatalf("inner group-by = %d", len(inner.GroupBy))
	}
	// the correlation conjunct must have been removed from the inner WHERE
	if inner.Where != nil {
		t.Errorf("inner where should be empty, got %s", inner.Where)
	}
	// root WHERE contains a GroupParam keyed by l.partkey
	var gp *expr.GroupParam
	expr.Walk(q.Root.Where, func(e expr.Expr) bool {
		if g, ok := e.(*expr.GroupParam); ok {
			gp = g
		}
		return true
	})
	if gp == nil {
		t.Fatal("no GroupParam in root WHERE")
	}
	if len(gp.Keys) != 1 {
		t.Errorf("group param keys = %d", len(gp.Keys))
	}
}

func TestCompileCompositeCorrelationKeys(t *testing.T) {
	q := compile(t, `SELECT COUNT(*) FROM lineitem l
		WHERE quantity > (SELECT 0.5 * AVG(quantity) FROM lineitem i
			WHERE i.partkey = l.partkey AND i.suppkey = l.suppkey)`)
	inner := q.Blocks[0]
	if inner.Kind != GroupScalarBlock || len(inner.GroupBy) != 2 {
		t.Fatalf("inner: kind=%v groups=%d", inner.Kind, len(inner.GroupBy))
	}
	var gp *expr.GroupParam
	expr.Walk(q.Root.Where, func(e expr.Expr) bool {
		if g, ok := e.(*expr.GroupParam); ok {
			gp = g
		}
		return true
	})
	if gp == nil || len(gp.Keys) != 2 {
		t.Fatal("composite keys not preserved")
	}
}

const q11SQL = `SELECT partkey, SUM(extendedprice) AS value FROM lineitem
	GROUP BY partkey
	HAVING SUM(extendedprice) > (SELECT SUM(extendedprice) * 0.0001 FROM lineitem)`

func TestCompileQ11UncertainHaving(t *testing.T) {
	q := compile(t, q11SQL)
	root := q.Root
	if len(root.GroupBy) != 1 || len(root.Aggs) != 1 {
		t.Fatalf("root shape: groups=%d aggs=%d", len(root.GroupBy), len(root.Aggs))
	}
	if root.Having == nil || !expr.HasParams(root.Having) {
		t.Fatal("having must carry the scalar param")
	}
	// aggregate dedup: SUM(extendedprice) appears twice but one spec
	if len(root.Aggs) != 1 {
		t.Errorf("aggs deduped = %d", len(root.Aggs))
	}
	if root.OutName[1] != "value" {
		t.Errorf("out names = %v", root.OutName)
	}
}

const q18SQL = `SELECT orderkey, SUM(quantity) FROM lineitem
	WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 300)
	GROUP BY orderkey`

func TestCompileQ18SetBlock(t *testing.T) {
	q := compile(t, q18SQL)
	if len(q.SetBlocks) != 1 {
		t.Fatalf("set blocks = %d", len(q.SetBlocks))
	}
	inner := q.SetBlocks[0]
	if inner.Kind != SetBlock || len(inner.GroupBy) != 1 || inner.Having == nil {
		t.Fatalf("inner: %v groups=%d having=%v", inner.Kind, len(inner.GroupBy), inner.Having)
	}
	var sp *expr.SetParam
	expr.Walk(q.Root.Where, func(e expr.Expr) bool {
		if s, ok := e.(*expr.SetParam); ok {
			sp = s
		}
		return true
	})
	if sp == nil {
		t.Fatal("no SetParam in root WHERE")
	}
}

func TestCompileInSubqueryWithoutGroupBy(t *testing.T) {
	q := compile(t, `SELECT COUNT(*) FROM lineitem WHERE partkey IN (SELECT partkey FROM parts WHERE brand = 'B1')`)
	inner := q.SetBlocks[0]
	if len(inner.GroupBy) != 1 {
		t.Fatal("IN subquery should group by its key")
	}
	if inner.Having != nil {
		t.Fatal("no having expected")
	}
}

func TestCompileNestedTwoLevels(t *testing.T) {
	// subquery inside a subquery: C2-style mean+stddev threshold
	q := compile(t, `SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) + STDDEV(buffer_time) FROM sessions
			WHERE play_time > (SELECT AVG(play_time) FROM sessions))`)
	if len(q.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(q.Blocks))
	}
	// dependency order: innermost first
	if q.Blocks[0].Kind != ScalarBlock || q.Blocks[1].Kind != ScalarBlock {
		t.Error("both inner blocks scalar")
	}
	mid := q.Blocks[1]
	if len(mid.Deps) != 1 || mid.Deps[0] != q.Blocks[0].ID {
		t.Errorf("mid deps = %v", mid.Deps)
	}
	if len(mid.Aggs) != 2 {
		t.Errorf("mid aggs = %d", len(mid.Aggs))
	}
}

func TestCompileJoin(t *testing.T) {
	q := compile(t, `SELECT brand, AVG(quantity) FROM lineitem l JOIN parts p ON l.partkey = p.partkey GROUP BY brand`)
	root := q.Root
	if len(root.Dims) != 1 || root.Dims[0].Table != "parts" {
		t.Fatalf("dims = %+v", root.Dims)
	}
	if len(root.Input.Schema) != 7 {
		t.Errorf("joined schema width = %d", len(root.Input.Schema))
	}
	// swapped ON sides also work
	q2 := compile(t, `SELECT COUNT(*) FROM lineitem l JOIN parts p ON p.partkey = l.partkey`)
	if len(q2.Root.Dims) != 1 {
		t.Error("swapped join sides")
	}
}

func TestCompileGroupByOrdinalAndAlias(t *testing.T) {
	q := compile(t, `SELECT FLOOR(play_time / 60) AS minute, COUNT(*) FROM sessions GROUP BY 1`)
	if len(q.Root.GroupBy) != 1 {
		t.Fatal("ordinal group-by")
	}
	q2 := compile(t, `SELECT FLOOR(play_time / 60) AS minute, COUNT(*) FROM sessions GROUP BY minute`)
	if len(q2.Root.GroupBy) != 1 {
		t.Fatal("alias group-by")
	}
	// select item referencing group expr binds to the group slot
	col, ok := q2.Root.Select[0].(*expr.Col)
	if !ok || col.Idx != 0 {
		t.Fatalf("select[0] = %#v", q2.Root.Select[0])
	}
}

func TestCompileOrderByForms(t *testing.T) {
	q := compile(t, `SELECT country, COUNT(*) AS c FROM sessions GROUP BY country ORDER BY c DESC, 1 LIMIT 5`)
	if len(q.Root.OrderBy) != 2 {
		t.Fatal("order terms")
	}
	if q.Root.OrderBy[0].Col != 1 || !q.Root.OrderBy[0].Desc {
		t.Errorf("order[0] = %+v", q.Root.OrderBy[0])
	}
	if q.Root.OrderBy[1].Col != 0 || q.Root.OrderBy[1].Desc {
		t.Errorf("order[1] = %+v", q.Root.OrderBy[1])
	}
	if q.Root.Limit != 5 {
		t.Errorf("limit = %d", q.Root.Limit)
	}
}

func TestCompilePlainProjection(t *testing.T) {
	q := compile(t, `SELECT session_id, play_time * 2 FROM sessions WHERE country = 'US'`)
	root := q.Root
	if root.Aggregating {
		t.Fatal("plain block misclassified as aggregating")
	}
	if len(root.Select) != 2 {
		t.Fatal("select width")
	}
	q2 := compile(t, `SELECT * FROM sessions`)
	if len(q2.Root.Select) != 4 {
		t.Errorf("star width = %d", len(q2.Root.Select))
	}
}

func TestCompileCountDistinct(t *testing.T) {
	q := compile(t, `SELECT COUNT(DISTINCT country) FROM sessions`)
	if !q.Root.Aggs[0].Distinct {
		t.Error("distinct flag lost")
	}
}

func TestCompileQuantileParams(t *testing.T) {
	q := compile(t, `SELECT QUANTILE(play_time, 0.9) FROM sessions`)
	if len(q.Root.Aggs[0].Params) != 1 {
		t.Fatal("quantile param")
	}
	compileErr(t, `SELECT QUANTILE(play_time, buffer_time) FROM sessions`, "constants")
	compileErr(t, `SELECT QUANTILE(play_time, 3.0) FROM sessions`, "fraction")
}

func TestCompileExistsRewrite(t *testing.T) {
	q := compile(t, `SELECT COUNT(*) FROM sessions WHERE EXISTS (SELECT 1 FROM parts WHERE brand = 'B1')`)
	if len(q.ScalarBlocks) != 1 {
		t.Fatal("EXISTS should become a scalar COUNT block")
	}
	if q.ScalarBlocks[0].Aggs[0].Name != "COUNT" {
		t.Error("rewritten agg")
	}
}

func TestCompileErrors(t *testing.T) {
	compileErr(t, `SELECT x FROM nope`, "unknown table")
	compileErr(t, `SELECT nope FROM sessions`, "unknown column")
	compileErr(t, `SELECT partkey FROM lineitem l JOIN parts p ON l.partkey = p.partkey`, "ambiguous")
	compileErr(t, `SELECT play_time FROM sessions GROUP BY country`, "GROUP BY")
	compileErr(t, `SELECT AVG(play_time) FROM sessions WHERE AVG(play_time) > 1`, "not allowed")
	// HAVING without GROUP BY implies a single global group; selecting a
	// bare column is then the error.
	compileErr(t, `SELECT country FROM sessions HAVING country = 'x'`, "must appear in GROUP BY")
	compileErr(t, `SELECT SUM(play_time - (SELECT AVG(play_time) FROM sessions)) FROM sessions`,
		"aggregate argument")
	compileErr(t, `SELECT COUNT(*) FROM sessions WHERE session_id IN
		(SELECT session_id FROM sessions s2 WHERE s2.play_time = sessions.play_time)`, "correlated")
	compileErr(t, `SELECT COUNT(*) FROM sessions WHERE buffer_time >
		(SELECT AVG(buffer_time) FROM sessions s2 WHERE s2.play_time > sessions.play_time)`,
		"correlated reference")
	compileErr(t, `SELECT COUNT(*) FROM sessions, parts`, "comma joins are not supported")
	compileErr(t, `SELECT (SELECT play_time FROM sessions) FROM sessions`, "GROUP BY")
	compileErr(t, `SELECT AVG(play_time) FROM sessions GROUP BY 7`, "ordinal 7 out of range")
	compileErr(t, `SELECT AVG(play_time) FROM sessions ORDER BY country`, "does not match")
	compileErr(t, `SELECT * , COUNT(*) FROM sessions`, "SELECT *")
	compileErr(t, `SELECT AVG(play_time) AS a FROM sessions GROUP BY a`, "not allowed")
}

func TestCompileSubqueryOrderLimitRejected(t *testing.T) {
	compileErr(t, `SELECT COUNT(*) FROM sessions WHERE buffer_time >
		(SELECT AVG(buffer_time) FROM sessions ORDER BY 1)`, "ORDER BY/LIMIT inside subqueries")
}

func TestExplainMentionsBlocksAndParams(t *testing.T) {
	q := compile(t, sbiSQL)
	out := q.Explain()
	if !strings.Contains(out, "block 0 (scalar)") || !strings.Contains(out, "block 1 (root)") {
		t.Errorf("explain = %s", out)
	}
	if !strings.Contains(out, "-> $0") {
		t.Errorf("explain should show param binding: %s", out)
	}
}

func TestOutSchemaAndKinds(t *testing.T) {
	q := compile(t, `SELECT country, COUNT(*) AS c, MIN(session_id) AS m FROM sessions GROUP BY country`)
	s := q.Root.OutSchema()
	if s[0].Type != types.KindString {
		t.Errorf("country kind = %v", s[0].Type)
	}
	if s[1].Type != types.KindFloat {
		t.Errorf("count kind = %v", s[1].Type)
	}
	if s[2].Type != types.KindInt {
		t.Errorf("min kind = %v (MIN keeps arg kind)", s[2].Type)
	}
}

func TestGroupByStarOrdinalRejected(t *testing.T) {
	compileErr(t, `SELECT *, 1 FROM sessions GROUP BY 1`, "GROUP BY ordinal cannot reference *")
}

func TestHavingAliasReference(t *testing.T) {
	q := compile(t, `SELECT country, COUNT(*) AS c FROM sessions GROUP BY country HAVING c > 10`)
	if q.Root.Having == nil {
		t.Fatal("having")
	}
}
