package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fluodb/internal/types"
)

// The reference encoder: the column-at-a-time, single-goroutine encoder
// the segment encoder replaced. It finds mixed columns in a pre-pass over
// every row, then fills each segment's banks one column at a time with
// codes straight from the table dictionaries. The segment encoder must
// produce exactly its tables — banks, null words, dictionaries, Mixed
// and MemBytes — at any GOMAXPROCS.

func refBuild(schema types.Schema, rows []types.Row, segSize int) *Table {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	t := &Table{
		Schema:  schema,
		Dicts:   make([]*Dict, len(schema)),
		SegSize: segSize,
		Mixed:   make([]bool, len(schema)),
		src:     rows,
		version: 1,
	}
	for c, col := range schema {
		if col.Type == types.KindString {
			t.Dicts[c] = newDict()
		}
	}
	for _, row := range rows {
		for c := range schema {
			if c < len(row) && !row[c].IsNull() && row[c].Kind() != schema[c].Type {
				t.Mixed[c] = true
			}
		}
	}
	for base := 0; base < len(rows); base += segSize {
		t.Segs = append(t.Segs, refSegment(t, rows[base:min(base+segSize, len(rows))], base))
	}
	return t
}

func refSegment(t *Table, rows []types.Row, base int) *Segment {
	n := len(rows)
	seg := &Segment{Base: base, N: n, Cols: make([]Col, len(t.Schema)), Rows: rows}
	for c, sc := range t.Schema {
		if t.Mixed[c] {
			continue
		}
		col := &seg.Cols[c]
		switch sc.Type {
		case types.KindInt, types.KindBool:
			col.Ints = make([]int64, n)
		case types.KindFloat:
			col.Floats = make([]float64, n)
		case types.KindString:
			col.Codes = make([]uint32, n)
		default:
			for i := 0; i < n; i++ {
				col.setNull(i, n)
			}
			continue
		}
		for i, row := range rows {
			var v types.Value
			if c < len(row) {
				v = row[c]
			}
			if v.IsNull() {
				col.setNull(i, n)
				continue
			}
			switch sc.Type {
			case types.KindInt:
				col.Ints[i] = v.Int()
			case types.KindBool:
				if v.Bool() {
					col.Ints[i] = 1
				}
			case types.KindFloat:
				col.Floats[i] = v.Float()
			case types.KindString:
				col.Codes[i] = t.Dicts[c].code(v.Str())
			}
		}
	}
	return seg
}

// refUpdate is the reference incremental update: a mixed pre-scan of the
// suffix (any new flag rebuilds), then the open tail and the suffix
// re-encoded column at a time.
func refUpdate(t *Table, rows []types.Row) {
	t.version++
	rebuild := func() {
		v := t.version
		*t = *refBuild(t.Schema, rows, t.SegSize)
		t.version = v
	}
	if len(rows) < len(t.src) {
		rebuild()
		return
	}
	for _, row := range rows[len(t.src):] {
		for c := range t.Schema {
			if !t.Mixed[c] && c < len(row) && !row[c].IsNull() && row[c].Kind() != t.Schema[c].Type {
				rebuild()
				return
			}
		}
	}
	t.src = rows
	if n := len(t.Segs); n > 0 && t.Segs[n-1].N < t.SegSize {
		t.Segs = t.Segs[:n-1]
	}
	for _, seg := range t.Segs {
		seg.Rows = rows[seg.Base : seg.Base+seg.N]
	}
	base := len(t.Segs) * t.SegSize
	for ; base < len(rows); base += t.SegSize {
		t.Segs = append(t.Segs, refSegment(t, rows[base:min(base+t.SegSize, len(rows))], base))
	}
}

// sameEncoding holds got to want field for field. Banks compare by bits
// (NaN and -0.0 included) and by capacity, which MemBytes charges.
func sameEncoding(t *testing.T, label string, got, want *Table) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{label}, args...)...)
	}
	if got.SegSize != want.SegSize || got.version != want.version || len(got.src) != len(want.src) {
		fail("segSize/version/rows %d/%d/%d, want %d/%d/%d", got.SegSize, got.version,
			len(got.src), want.SegSize, want.version, len(want.src))
	}
	if len(got.src) > 0 && &got.src[0] != &want.src[0] {
		fail("source rows not aliased")
	}
	if !reflect.DeepEqual(got.Mixed, want.Mixed) {
		fail("Mixed %v, want %v", got.Mixed, want.Mixed)
	}
	if len(got.Dicts) != len(want.Dicts) {
		fail("%d dicts, want %d", len(got.Dicts), len(want.Dicts))
	}
	for c, wd := range want.Dicts {
		gd := got.Dicts[c]
		if (gd == nil) != (wd == nil) {
			fail("col %d: dict presence %v, want %v", c, gd != nil, wd != nil)
		}
		if wd != nil && (!reflect.DeepEqual(gd.Vals, wd.Vals) || !reflect.DeepEqual(gd.idx, wd.idx)) {
			fail("col %d: dict %q, want %q", c, gd.Vals, wd.Vals)
		}
	}
	if len(got.Segs) != len(want.Segs) {
		fail("%d segments, want %d", len(got.Segs), len(want.Segs))
	}
	for s, ws := range want.Segs {
		gs := got.Segs[s]
		if gs.Base != ws.Base || gs.N != ws.N || len(gs.Cols) != len(ws.Cols) {
			fail("seg %d: base/n/cols %d/%d/%d, want %d/%d/%d", s, gs.Base, gs.N,
				len(gs.Cols), ws.Base, ws.N, len(ws.Cols))
		}
		if len(gs.Rows) != len(ws.Rows) || (len(ws.Rows) > 0 && &gs.Rows[0] != &ws.Rows[0]) {
			fail("seg %d: rows do not alias the source window", s)
		}
		for c := range ws.Cols {
			g, w := &gs.Cols[c], &ws.Cols[c]
			if !sameBank(g.Ints, w.Ints, func(x int64) uint64 { return uint64(x) }) ||
				!sameBank(g.Floats, w.Floats, math.Float64bits) ||
				!sameBank(g.Codes, w.Codes, func(x uint32) uint64 { return uint64(x) }) ||
				!sameBank(g.nulls, w.nulls, func(x uint64) uint64 { return x }) {
				fail("seg %d col %d: banks\n got %+v\nwant %+v", s, c, *g, *w)
			}
		}
	}
	if got.MemBytes() != want.MemBytes() {
		fail("MemBytes %d, want %d", got.MemBytes(), want.MemBytes())
	}
}

func sameBank[T any](got, want []T, bits func(T) uint64) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) || cap(got) != cap(want) {
		return false
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) {
			return false
		}
	}
	return true
}

// sameValues checks the per-cell round trip: Value returns each source
// cell (NULL past a short row's end) with its kind and bits.
func sameValues(t *testing.T, label string, ct *Table, rows []types.Row) {
	t.Helper()
	for g, row := range rows {
		seg, i := ct.Segment(g)
		for c := range ct.Schema {
			want := types.Null
			if c < len(row) {
				want = row[c]
			}
			got := ct.Value(seg, c, i)
			same := got.Kind() == want.Kind()
			if same && !want.IsNull() {
				switch want.Kind() {
				case types.KindFloat:
					same = math.Float64bits(got.Float()) == math.Float64bits(want.Float())
				default:
					same = types.Equal(got, want)
				}
			}
			if !same {
				t.Fatalf("%s: row %d col %d: Value %v, want %v", label, g, c, got, want)
			}
		}
	}
}

// atProcs runs f at GOMAXPROCS 1 and 2, restoring the setting after.
func atProcs(t *testing.T, f func(t *testing.T, label string)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 2} {
		runtime.GOMAXPROCS(p)
		f(t, fmt.Sprintf("GOMAXPROCS=%d", p))
	}
}

// checkBuild holds Build over rows to the reference.
func checkBuild(t *testing.T, schema types.Schema, rows []types.Row, segSize int) {
	t.Helper()
	atProcs(t, func(t *testing.T, label string) {
		ct := Build(schema, rows, segSize)
		sameEncoding(t, label+" Build", ct, refBuild(schema, rows, segSize))
		sameValues(t, label+" Build", ct, rows)
	})
}

// checkUpdate holds Build(rows[:k]) then Update over each longer prefix
// in steps (and finally rows) to the reference's Build and Update.
func checkUpdate(t *testing.T, schema types.Schema, rows []types.Row, segSize int, steps ...int) {
	t.Helper()
	atProcs(t, func(t *testing.T, label string) {
		ct := Build(schema, rows[:steps[0]], segSize)
		ref := refBuild(schema, rows[:steps[0]], segSize)
		for _, k := range append(steps[1:], len(rows)) {
			ct.Update(rows[:k])
			refUpdate(ref, rows[:k])
			l := fmt.Sprintf("%s Update to %d", label, k)
			sameEncoding(t, l, ct, ref)
			sameValues(t, l, ct, rows[:k])
		}
	})
}

var encSchema = types.NewSchema(
	"i", types.KindInt, "b", types.KindBool, "f", types.KindFloat,
	"s", types.KindString, "n", types.KindNull)

// encRow builds row i of a deterministic table over encSchema: word
// picks the string (call sites vary it per segment), NULLs recur on a
// per-column period.
func encRow(i int, word string) types.Row {
	r := types.Row{
		types.NewInt(int64(i%11) - 5),
		types.NewBool(i%3 == 0),
		types.NewFloat(float64(i) / 7),
		types.NewString(word),
		types.Null,
	}
	for c := range r {
		if (i+c)%(5+c) == 0 {
			r[c] = types.Null
		}
	}
	return r
}

func encRows(n int, word func(i int) string) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = encRow(i, word(i))
	}
	return rows
}

// TestEncodeMixedLateSegment: a wrong-kind value in the last segment
// only flags its column table-wide — earlier segments lose that bank.
func TestEncodeMixedLateSegment(t *testing.T) {
	rows := encRows(70, func(i int) string { return []string{"x", "y"}[i%2] })
	rows[66][0] = types.NewString("stray")
	rows[67][3] = types.NewInt(4)
	checkBuild(t, encSchema, rows, 16)
}

// TestEncodeStringLateSegment: strings first seen in late segments get
// the next table codes in scan order, while earlier strings keep theirs.
func TestEncodeStringLateSegment(t *testing.T) {
	rows := encRows(90, func(i int) string {
		if i >= 48 {
			return fmt.Sprintf("late-%d", (90-i)%5) // fresh strings, reverse order
		}
		return []string{"a", "b", "c"}[i%3]
	})
	checkBuild(t, encSchema, rows, 16)
}

// TestEncodeNullColumnAndSegment: a NULL-kind column is all NULL bits,
// and a segment in which every cell is NULL carries full bitmaps and no
// local strings.
func TestEncodeNullColumnAndSegment(t *testing.T) {
	rows := encRows(48, func(i int) string { return "w" })
	for i := 16; i < 32; i++ {
		rows[i] = make(types.Row, len(encSchema))
	}
	checkBuild(t, encSchema, rows, 16)
	// A NULL-kind column holding a value is mixed.
	rows[40][4] = types.NewInt(1)
	checkBuild(t, encSchema, rows, 16)
}

// TestEncodeShortRows: cells past a short row's end read NULL, and a
// short tail segment is encoded at its own length.
func TestEncodeShortRows(t *testing.T) {
	rows := encRows(37, func(i int) string { return []string{"p", "q"}[i%2] })
	for i := 0; i < len(rows); i += 4 {
		rows[i] = rows[i][:i%len(encSchema)]
	}
	checkBuild(t, encSchema, rows, 16)
	checkBuild(t, encSchema, rows, 0)
}

// TestEncodeUpdateAcrossSeal: appends that fill the open tail and run
// past several seal boundaries, new strings included, match a reference
// that re-encodes column at a time.
func TestEncodeUpdateAcrossSeal(t *testing.T) {
	rows := encRows(120, func(i int) string { return fmt.Sprintf("w%d", i/20) })
	checkUpdate(t, encSchema, rows, 16, 10, 16, 17, 40, 64, 65)
}

// TestEncodeUpdateMixedRebuild: an appended wrong-kind value forces the
// full rebuild, after which the column stays mixed and later appends are
// incremental again.
func TestEncodeUpdateMixedRebuild(t *testing.T) {
	rows := encRows(80, func(i int) string { return []string{"m", "n", "o"}[i%3] })
	rows[45][3] = types.NewFloat(1.5)
	checkUpdate(t, encSchema, rows, 16, 40, 50, 60)
	// Shrinking rebuilds too.
	atProcs(t, func(t *testing.T, label string) {
		ct, ref := Build(encSchema, rows, 16), refBuild(encSchema, rows, 16)
		ct.Update(rows[:20])
		refUpdate(ref, rows[:20])
		sameEncoding(t, label+" shrink", ct, ref)
	})
}

// TestEncodeRandomTables runs the randomized round-trip generator
// through the reference comparison.
func TestEncodeRandomTables(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rows, schema, segSize := randTable(seed)
		checkBuild(t, schema, rows, segSize)
		if len(rows) > 2 {
			checkUpdate(t, schema, rows, segSize, len(rows)/3, len(rows)/2)
		}
	}
}

// FuzzColumnarEncode decodes a schema, segment size, rows (kinds, NULLs,
// short rows, wrong-kind cells, repeated and fresh strings, -0.0 and
// NaN) and an append point from the input, and holds Build and Update
// to the reference at GOMAXPROCS 1 and 2.
func FuzzColumnarEncode(f *testing.F) {
	f.Add([]byte{3, 0, 2, 3, 5, 60, 30})
	f.Add([]byte{5, 0, 1, 2, 3, 4, 2, 200, 90, 255, 7, 0, 13, 1, 1, 40, 255, 3})
	f.Add([]byte{1, 3, 0, 255, 10, 0, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		kinds := []types.Kind{types.KindNull, types.KindBool, types.KindInt, types.KindFloat, types.KindString}
		schema := make(types.Schema, 1+int(next())%5)
		for c := range schema {
			schema[c] = types.Column{Name: fmt.Sprint("c", c), Type: kinds[int(next())%len(kinds)]}
		}
		segSize := 1 + int(next())%20
		nrows := int(next())
		split := int(next()) % (nrows + 1)
		rows := make([]types.Row, nrows)
		for i := range rows {
			row := make(types.Row, len(schema))
			if b := next(); b < 16 {
				row = row[:int(b)%len(schema)] // short row
			}
			for c := range row {
				row[c] = fuzzValue(next(), schema[c].Type)
			}
			rows[i] = row
		}
		atProcs(t, func(t *testing.T, label string) {
			ct := Build(schema, rows, segSize)
			sameEncoding(t, label+" Build", ct, refBuild(schema, rows, segSize))
			sameValues(t, label+" Build", ct, rows)
			ct, ref := Build(schema, rows[:split], segSize), refBuild(schema, rows[:split], segSize)
			ct.Update(rows)
			refUpdate(ref, rows)
			sameEncoding(t, label+" Update", ct, ref)
			sameValues(t, label+" Update", ct, rows)
		})
	})
}

// fuzzValue maps one byte to a cell of the declared kind: about one in
// eight NULL, one in 256 of another kind.
func fuzzValue(b byte, kind types.Kind) types.Value {
	switch {
	case b < 32:
		return types.Null
	case b == 255:
		if kind == types.KindString {
			return types.NewInt(-1)
		}
		return types.NewString("stray")
	}
	switch kind {
	case types.KindBool:
		return types.NewBool(b&1 == 1)
	case types.KindInt:
		return types.NewInt(int64(b) - 128)
	case types.KindFloat:
		switch b % 16 {
		case 0:
			return types.NewFloat(negZero())
		case 1:
			return types.NewFloat(math.NaN())
		}
		return types.NewFloat(float64(b) / 3)
	case types.KindString:
		return types.NewString(fmt.Sprint("s", b%23))
	default:
		return types.Null
	}
}

// randTable draws a table from the round-trip test's generators.
func randTable(seed int64) ([]types.Row, types.Schema, int) {
	rng := rand.New(rand.NewSource(seed))
	schema := randSchema(rng)
	rows := make([]types.Row, rng.Intn(600))
	for i := range rows {
		row := make(types.Row, len(schema))
		for c := range schema {
			row[c] = randValue(rng, schema[c].Type, 0.15, seed%3 == 0)
		}
		rows[i] = row
	}
	return rows, schema, []int{0, 1, 7, 64, 4096}[rng.Intn(5)]
}
