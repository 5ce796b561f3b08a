package storage

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"

	"fluodb/internal/types"
)

func testTable(t *testing.T, n int) *Table {
	t.Helper()
	tab := NewTable("t", types.NewSchema("id", types.KindInt, "v", types.KindFloat))
	for i := 0; i < n; i++ {
		if err := tab.Append(types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestAppendArityChecked(t *testing.T) {
	tab := testTable(t, 0)
	if err := tab.Append(types.Row{types.NewInt(1)}); err == nil {
		t.Error("short row should be rejected")
	}
	if err := tab.AppendAll([]types.Row{{types.NewInt(1), types.NewFloat(2), types.NewInt(3)}}); err == nil {
		t.Error("long row should be rejected")
	}
}

func TestShuffledIsPermutationAndDeterministic(t *testing.T) {
	tab := testTable(t, 100)
	s1 := tab.Shuffled(42)
	s2 := tab.Shuffled(42)
	s3 := tab.Shuffled(7)
	if s1.NumRows() != 100 {
		t.Fatal("row count changed")
	}
	// same seed → same order
	for i := range s1.Rows() {
		if !types.Equal(s1.Rows()[i][0], s2.Rows()[i][0]) {
			t.Fatal("same seed must reproduce the permutation")
		}
	}
	// different seed → (almost surely) different order
	same := true
	for i := range s1.Rows() {
		if !types.Equal(s1.Rows()[i][0], s3.Rows()[i][0]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical permutation")
	}
	// permutation: all ids present exactly once
	seen := map[int64]bool{}
	for _, r := range s1.Rows() {
		seen[r[0].Int()] = true
	}
	if len(seen) != 100 {
		t.Errorf("shuffle lost rows: %d distinct ids", len(seen))
	}
	// original untouched
	if tab.Rows()[0][0].Int() != 0 {
		t.Error("Shuffled mutated the source table")
	}
}

func TestMiniBatchesUniform(t *testing.T) {
	tab := testTable(t, 103)
	batches := tab.MiniBatches(10)
	if len(batches) != 10 {
		t.Fatalf("batches = %d", len(batches))
	}
	total := 0
	for i, b := range batches {
		total += len(b)
		if i < 9 && len(b) != 10 {
			t.Errorf("batch %d size = %d, want 10", i, len(b))
		}
	}
	if total != 103 {
		t.Errorf("total = %d", total)
	}
	// batches partition the table in order
	if batches[0][0][0].Int() != 0 || batches[9][len(batches[9])-1][0].Int() != 102 {
		t.Error("batches out of order")
	}
}

func TestMiniBatchesEdgeCases(t *testing.T) {
	empty := testTable(t, 0)
	if got := empty.MiniBatches(4); len(got) != 4 {
		t.Errorf("empty table should still give k batch slots, got %d", len(got))
	}
	small := testTable(t, 3)
	b := small.MiniBatches(10)
	total := 0
	for _, x := range b {
		total += len(x)
	}
	if total != 3 {
		t.Errorf("k > n total = %d", total)
	}
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	small.MiniBatches(0)
}

func TestMiniBatchesCoverEverythingQuick(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		if k == 0 {
			return true
		}
		tab := testTable(nil2(t), int(n))
		total := 0
		for _, b := range tab.MiniBatches(int(k)) {
			total += len(b)
		}
		return total == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func nil2(t *testing.T) *testing.T { return t }

func TestCSVRoundTrip(t *testing.T) {
	tab := NewTable("t", types.NewSchema(
		"id", types.KindInt, "name", types.KindString,
		"score", types.KindFloat, "ok", types.KindBool))
	_ = tab.Append(types.Row{types.NewInt(1), types.NewString("a,b"), types.NewFloat(2.5), types.NewBool(true)})
	_ = tab.Append(types.Row{types.Null, types.NewString(""), types.Null, types.NewBool(false)})

	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("t2", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if got.Schema().String() != tab.Schema().String() {
		t.Errorf("schema = %v", got.Schema())
	}
	if got.Rows()[0][1].Str() != "a,b" {
		t.Errorf("comma string = %q", got.Rows()[0][1].Str())
	}
	if !got.Rows()[1][0].IsNull() || !got.Rows()[1][2].IsNull() {
		t.Error("NULLs lost in round trip")
	}
}

func TestCSVFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	tab := testTable(t, 5)
	if err := tab.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSVFile("t", path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 5 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", bytes.NewBufferString("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV("x", bytes.NewBufferString("a\n1\n")); err == nil {
		t.Error("untyped header should fail")
	}
	if _, err := ReadCSV("x", bytes.NewBufferString("a:int\nzap\n")); err == nil {
		t.Error("bad int cell should fail")
	}
	if _, err := ReadCSV("x", bytes.NewBufferString("a:widget\n")); err == nil {
		t.Error("unknown type tag should fail")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	c.Put(testTable(t, 1))
	if _, ok := c.Get("T"); !ok {
		t.Error("case-insensitive get failed")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "t" {
		t.Errorf("names = %v", names)
	}
	if !c.Drop("t") {
		t.Error("drop existing")
	}
	if c.Drop("t") {
		t.Error("drop missing should report false")
	}
	if _, ok := c.Get("t"); ok {
		t.Error("table should be gone")
	}
}

func TestFromRowsShares(t *testing.T) {
	rows := []types.Row{{types.NewInt(1)}}
	tab := FromRows("x", types.NewSchema("a", types.KindInt), rows)
	if tab.NumRows() != 1 || tab.Name() != "x" {
		t.Error("FromRows basics")
	}
}
