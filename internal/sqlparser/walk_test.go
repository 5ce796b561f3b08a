package sqlparser

import (
	"strings"
	"testing"
)

// TestWalk pins Walk's pre-order visit order over every node kind, the
// opacity of each nested-query form (a Subquery, an ExistsExpr and an
// InExpr's SELECT are visited themselves, never entered), and that f
// returning false skips a node's children but not its siblings.
func TestWalk(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		skip      string // f returns false on the node rendering as this
		want      []string
	}{
		{"binary", "a + 1 * b", "",
			[]string{"(a + (1 * b))", "a", "(1 * b)", "1", "b"}},
		{"unary-func", "NOT f(a, -b)", "",
			[]string{"(NOT F(a, (-b)))", "F(a, (-b))", "a", "(-b)", "b"}},
		{"between-isnull", "a BETWEEN b AND c OR d IS NULL", "",
			[]string{"((a BETWEEN b AND c) OR (d IS NULL))", "(a BETWEEN b AND c)", "a", "b", "c",
				"(d IS NULL)", "d"}},
		{"case", "CASE a WHEN 1 THEN b WHEN 2 THEN c ELSE d END", "",
			[]string{"CASE a WHEN 1 THEN b WHEN 2 THEN c ELSE d END", "a", "1", "b", "2", "c", "d"}},
		{"in-list", "a IN (b, 2)", "",
			[]string{"a IN (b, 2)", "a", "b", "2"}},
		{"subquery", "a < (SELECT MAX(x) FROM t WHERE y = a)", "",
			[]string{"(a < (SELECT MAX(x) FROM t WHERE (y = a)))", "a", "(SELECT MAX(x) FROM t WHERE (y = a))"}},
		{"exists", "NOT EXISTS (SELECT x FROM t WHERE y > 1)", "",
			[]string{"(NOT EXISTS (SELECT x FROM t WHERE (y > 1)))", "EXISTS (SELECT x FROM t WHERE (y > 1))"}},
		{"in-subquery", "f(a) IN (SELECT x FROM t WHERE y = b)", "",
			[]string{"F(a) IN (SELECT x FROM t WHERE (y = b))", "F(a)", "a"}},
		{"skip-children", "f(a + b, c) = d", "(a + b)",
			[]string{"(F((a + b), c) = d)", "F((a + b), c)", "(a + b)", "c", "d"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := ParseExpr(tc.sql)
			if err != nil {
				t.Fatalf("ParseExpr(%q): %v", tc.sql, err)
			}
			var got []string
			Walk(e, func(x Expr) bool {
				got = append(got, x.SQL())
				return x.SQL() != tc.skip
			})
			if strings.Join(got, " | ") != strings.Join(tc.want, " | ") {
				t.Fatalf("visits:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
	Walk(nil, func(Expr) bool { t.Fatal("Walk(nil) visited a node"); return true })
}
