package types

import (
	"testing"
	"testing/quick"
)

func TestNewSchemaAndLookup(t *testing.T) {
	s := NewSchema("id", KindInt, "name", KindString, "score", KindFloat)
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	if s.ColumnIndex("name") != 1 {
		t.Error("ColumnIndex(name)")
	}
	if s.ColumnIndex("NAME") != 1 {
		t.Error("ColumnIndex should be case-insensitive")
	}
	if s.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex(missing)")
	}
	want := "(id BIGINT, name VARCHAR, score DOUBLE)"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
	names := s.Names()
	if len(names) != 3 || names[2] != "score" {
		t.Errorf("Names = %v", names)
	}
}

func TestNewSchemaPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchema("only-name")
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias the original")
	}
}

func TestKeyEqualAndHashKey(t *testing.T) {
	a := Row{NewInt(1), NewString("x"), NewFloat(2.0)}
	b := Row{NewInt(1), NewString("y"), NewFloat(2.0)}
	if !KeyEqual(a, b, []int{0, 2}) {
		t.Error("rows agree on cols 0,2")
	}
	if KeyEqual(a, b, []int{1}) {
		t.Error("rows differ on col 1")
	}
	if a.HashKey([]int{0, 2}) != b.HashKey([]int{0, 2}) {
		t.Error("equal keys must hash equal")
	}
}

func TestKeyStringDistinguishesKindsButNotNumericWidth(t *testing.T) {
	null := Row{Null}
	str := Row{NewString("NULL")}
	if null.KeyString([]int{0}) == str.KeyString([]int{0}) {
		t.Error("NULL and the string \"NULL\" must not collide")
	}
	i := Row{NewInt(1)}
	f := Row{NewFloat(1.0)}
	if i.KeyString([]int{0}) != f.KeyString([]int{0}) {
		t.Error("1 and 1.0 group together, consistent with Equal")
	}
}

func TestKeyStringSeparatorSafety(t *testing.T) {
	// ("a","b") and ("a\x1fb",) style collisions across different column
	// *counts* are impossible since cols is fixed per query; but two
	// 2-col keys must not collide when values shift across the separator.
	a := Row{NewString("x\x1f"), NewString("y")}
	b := Row{NewString("x"), NewString("\x1fy")}
	// These are genuinely ambiguous with a naive join; document that keys
	// include kind tags which keep this specific pair distinct.
	if a.KeyString([]int{0, 1}) == b.KeyString([]int{0, 1}) {
		t.Log("known limitation: control chars inside string keys may collide")
	}
}

func TestKeyStringEqualPropertyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		ra := Row{NewInt(a)}
		rb := Row{NewInt(b)}
		sameKey := ra.KeyString([]int{0}) == rb.KeyString([]int{0})
		return sameKey == Equal(ra[0], rb[0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), Null}
	if r.String() != "[1, a, NULL]" {
		t.Errorf("Row.String = %q", r.String())
	}
}

func BenchmarkKeyString1Int(b *testing.B) {
	v := NewInt(123456)
	for i := 0; i < b.N; i++ {
		_ = KeyString1(v)
	}
}

func BenchmarkKeyStringMultiCol(b *testing.B) {
	r := Row{NewInt(42), NewString("US"), NewFloat(2.5)}
	cols := []int{0, 1, 2}
	for i := 0; i < b.N; i++ {
		_ = r.KeyString(cols)
	}
}
