// Package colstore is FluoDB's typed columnar layout: a storage.Table's
// rows re-encoded once into fixed-size segments of flat typed banks —
// []int64 for BIGINT/BOOLEAN, []float64 for DOUBLE, dictionary codes for
// VARCHAR — plus per-column null bitmaps. The mini-batch hot loops in
// internal/core sweep these banks directly (vectorized classification
// into selection vectors, one banked fold kernel over runs of rows)
// instead of walking boxed types.Row values; OLA-RAW's chunked in-situ
// layout is the same segment abstraction, and PF-OLA's lesson is that
// online aggregation lives or dies on the tightness of this per-chunk
// loop.
//
// Encoding is one pass per segment: encodeSegment walks a segment's rows
// once and writes every bank, null bitmap and a segment-local string
// dictionary, and the segments are encoded in parallel on
// min(GOMAXPROCS, #segments) goroutines. install then merges them in
// segment order — local strings enter the table dictionaries in
// first-occurrence order, codes are remapped, and a column found mixed
// in any segment loses its banks everywhere — so the result equals a
// serial first-occurrence scan whatever the worker count. Build, Update
// and the full rebuild all encode this way.
//
// The encoding is strictly a cache: the source rows stay authoritative
// (segments alias them for row-path fallback and uncertain-set lineage),
// and scanning a column back yields values equal to the originals —
// including NULLs and dictionary strings — which is what licenses the
// engine to switch between the row and columnar paths per batch with
// bit-identical results.
package colstore

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fluodb/internal/types"
)

// DefaultSegmentSize is the number of rows per segment. Batches need not
// align with segments: sweeps address half-open local row ranges.
const DefaultSegmentSize = 4096

// Dict is a table-level dictionary for one VARCHAR column. Codes are
// assigned in first-occurrence order and are stable across segments, so
// a (column, code) pair identifies one distinct string table-wide —
// per-code predicate tables and group keys never touch string bytes.
type Dict struct {
	Vals []string
	idx  map[string]uint32
}

func newDict() *Dict { return &Dict{idx: map[string]uint32{}} }

func (d *Dict) code(s string) uint32 {
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := uint32(len(d.Vals))
	d.Vals = append(d.Vals, s)
	d.idx[s] = c
	return c
}

// Code looks up the code of s without assigning one. Predicate kernels
// resolve constant strings through it: an absent string can never match
// an equality (and can never be stored), so the caller folds the
// comparison to a constant vector instead of growing the dictionary.
func (d *Dict) Code(s string) (uint32, bool) {
	c, ok := d.idx[s]
	return c, ok
}

// Col is one column's typed bank within a segment. Exactly one of Ints,
// Floats or Codes is populated, per the declared schema kind (BOOLEAN
// packs into Ints as 0/1); a mixed column (see Table.Mixed) populates
// none. NULL slots hold zero in the bank and are flagged in the bitmap.
type Col struct {
	Ints   []int64
	Floats []float64
	Codes  []uint32
	nulls  []uint64 // 1 bit per row; nil = segment has no NULLs here
}

// Null reports whether the column's local row i is SQL NULL.
func (c *Col) Null(i int) bool {
	return c.nulls != nil && c.nulls[i>>6]>>(uint(i)&63)&1 == 1
}

// HasNulls reports whether the segment holds any NULL in this column.
func (c *Col) HasNulls() bool { return c.nulls != nil }

// NullWords returns the NULL bitmap, bit i%64 of word i/64 for row i
// (nil when no row is NULL).
func (c *Col) NullWords() []uint64 { return c.nulls }

// SetNullWords installs w as the NULL bitmap (nil: no NULLs). Computed
// columns (expr.NumKernel) assemble theirs from their operands' words.
func (c *Col) SetNullWords(w []uint64) { c.nulls = w }

func (c *Col) setNull(i, n int) {
	if c.nulls == nil {
		c.nulls = make([]uint64, (n+63)/64)
	}
	c.nulls[i>>6] |= 1 << (uint(i) & 63)
}

// Segment is a fixed-size run of rows in columnar form. Rows aliases
// the source rows it was built from (never copied), so the row-oriented
// fallback and uncertain-set lineage read the exact same tuples.
type Segment struct {
	Base int // global index of the segment's first row
	N    int
	Cols []Col
	Rows []types.Row
}

// Table is the columnar encoding of one relation.
type Table struct {
	Schema  types.Schema
	Dicts   []*Dict // per column; nil for non-VARCHAR columns
	Segs    []*Segment
	SegSize int
	// Mixed flags columns holding at least one non-NULL value whose kind
	// differs from the declared schema kind (rows are not kind-checked on
	// append). A mixed column carries no typed bank; readers must fall
	// back to the source rows for it.
	Mixed []bool
	src   []types.Row
	// version counts encoding generations: Build starts at 1 and every
	// Update (incremental or full rebuild) bumps it. Compiled kernels
	// capture per-code tables sized to the dictionaries they saw, so
	// consumers key cached kernels on (table pointer, version) and
	// recompile when either moves.
	version uint64
}

// Version returns the encoding generation (see the version field).
func (t *Table) Version() uint64 { return t.version }

// Build encodes rows (not copied; segments alias them) under the given
// schema. segSize <= 0 selects DefaultSegmentSize.
func Build(schema types.Schema, rows []types.Row, segSize int) *Table {
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
	encs := encodeSegments(schema, t.Mixed, rows, 0, segSize)
	for _, e := range encs {
		for c, m := range e.mixed {
			t.Mixed[c] = t.Mixed[c] || m
		}
	}
	t.install(encs)
	return t
}

// segEnc is one segment encoded on its own, before install merges it
// into the table.
type segEnc struct {
	seg *Segment
	// mixed flags the columns holding a non-NULL value of another kind
	// than declared (nil: none). Their banks are partly written and are
	// dropped by install once the flag is table-wide.
	mixed []bool
	// strs holds, per VARCHAR column, the segment's distinct strings in
	// first-occurrence order; the segment's Codes index it until install
	// remaps them into the table dictionary.
	strs  [][]string
	touch types.Kind // see encodeSegment
}

// lookahead is how many rows ahead of the one it encodes encodeSegment
// touches a row.
const lookahead = 8

// encodeSegments encodes rows[from:] (from is a segment boundary) into
// segments of segSize rows on min(GOMAXPROCS, #segments) goroutines.
// Columns flagged in skip (already Mixed) get no bank. Each segment is
// encoded independently of the others, so the result does not depend on
// the number of goroutines or on which one took which segment.
func encodeSegments(schema types.Schema, skip []bool, rows []types.Row, from, segSize int) []segEnc {
	nseg := (len(rows) - from + segSize - 1) / segSize
	encs := make([]segEnc, nseg)
	var next atomic.Int64
	work := func() {
		local := make([]map[string]uint32, len(schema)) // reused across segments
		for {
			s := int(next.Add(1)) - 1
			if s >= nseg {
				return
			}
			base := from + s*segSize
			encs[s] = encodeSegment(schema, skip, rows[base:min(base+segSize, len(rows))], base, local)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), nseg); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return encs
}

// encodeSegment encodes one segment in a single pass over its rows,
// writing every column's typed bank and null bitmap as it goes. Strings
// get segment-local codes through local (per-column scratch maps,
// cleared here). A row shorter than the schema reads NULL past its end.
func encodeSegment(schema types.Schema, skip []bool, rows []types.Row, base int, local []map[string]uint32) segEnc {
	n := len(rows)
	seg := &Segment{Base: base, N: n, Cols: make([]Col, len(schema)), Rows: rows}
	e := segEnc{seg: seg}
	for c, sc := range schema {
		if skip[c] {
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
			if e.strs == nil {
				e.strs = make([][]string, len(schema))
			}
			if local[c] == nil {
				local[c] = map[string]uint32{}
			}
			clear(local[c])
		}
	}
	// The rows of a shuffled table lie scattered in memory, and the loop
	// stalls on each one's first load. Reading both ends of a row
	// lookahead rows early starts those cache misses sooner; the loaded
	// kinds go to e.touch so the reads are not optimised away.
	var touch types.Kind
	for i, row := range rows {
		if j := i + lookahead; j < n {
			if r := rows[j]; len(r) > 0 {
				touch ^= r[0].Kind() ^ r[len(r)-1].Kind()
			}
		}
		for c := range schema {
			if skip[c] {
				continue
			}
			col := &seg.Cols[c]
			if c >= len(row) {
				col.setNull(i, n)
				continue
			}
			v := &row[c]
			k := v.Kind()
			if k == types.KindNull {
				col.setNull(i, n)
				continue
			}
			if k != schema[c].Type {
				if e.mixed == nil {
					e.mixed = make([]bool, len(schema))
				}
				e.mixed[c] = true
				continue
			}
			switch k {
			case types.KindInt:
				col.Ints[i] = v.Int()
			case types.KindBool:
				if v.Bool() {
					col.Ints[i] = 1
				}
			case types.KindFloat:
				col.Floats[i] = v.Float()
			case types.KindString:
				s := v.Str()
				code, ok := local[c][s]
				if !ok {
					code = uint32(len(e.strs[c]))
					e.strs[c] = append(e.strs[c], s)
					local[c][s] = code
				}
				col.Codes[i] = code
			}
		}
	}
	e.touch = touch
	return e
}

// install appends encoded segments to the table in segment order. A
// column flagged Mixed loses its banks and null bitmap. Every other
// VARCHAR column's local strings enter the table dictionary segment by
// segment in first-occurrence order, and the segment's codes are
// remapped to the table codes (NULL slots keep code 0): the dictionary
// and codes are exactly those of one serial first-occurrence scan of the
// rows, which is what keeps Update's codes append-only.
func (t *Table) install(encs []segEnc) {
	var remap []uint32
	for _, e := range encs {
		for c := range e.seg.Cols {
			col := &e.seg.Cols[c]
			if t.Mixed[c] {
				*col = Col{}
				continue
			}
			if e.strs == nil || len(e.strs[c]) == 0 {
				continue
			}
			remap = remap[:0]
			for _, s := range e.strs[c] {
				remap = append(remap, t.Dicts[c].code(s))
			}
			for i, l := range col.Codes {
				if !col.Null(i) {
					col.Codes[i] = remap[l]
				}
			}
		}
		t.Segs = append(t.Segs, e.seg)
	}
}

// Update brings the encoding up to date with rows, which must be the
// table's current backing slice. The common case — rows extend the
// previously encoded prefix — is handled incrementally: sealed (full)
// segments are kept untouched (their typed banks are never rebuilt,
// asserted by backing-pointer identity tests), only the open tail
// segment is re-encoded together with the appended suffix, and
// dictionary codes stay stable because install merges the re-encoded
// segments in the exact first-occurrence order of a full build. A shrunk
// table or a suffix value whose kind newly flags a column as Mixed falls
// back to a full rebuild (Mixed banks must be absent table-wide, not per
// segment). Either way the version advances, so cached kernels
// recompile against the current dictionaries.
func (t *Table) Update(rows []types.Row) {
	t.version++
	if len(rows) < len(t.src) {
		t.rebuildAll(rows)
		return
	}
	keep := len(t.Segs)
	if keep > 0 && t.Segs[keep-1].N < t.SegSize {
		keep-- // open tail: re-encoded with the suffix
	}
	encs := encodeSegments(t.Schema, t.Mixed, rows, keep*t.SegSize, t.SegSize)
	for _, e := range encs {
		if e.mixed != nil {
			t.rebuildAll(rows)
			return
		}
	}
	t.src = rows
	t.Segs = t.Segs[:keep]
	// Appending may have moved the backing array; re-alias every sealed
	// segment's row window so Aligned and row-path fallbacks keep seeing
	// the live tuples.
	for _, seg := range t.Segs {
		seg.Rows = rows[seg.Base : seg.Base+seg.N]
	}
	t.install(encs)
}

// rebuildAll re-encodes from scratch, preserving the (already bumped)
// version. The fresh dictionaries may assign different codes than the
// incremental path would have; the version bump is what forces every
// cached kernel to resolve its constants again.
func (t *Table) rebuildAll(rows []types.Row) {
	v := t.version
	*t = *Build(t.Schema, rows, t.SegSize)
	t.version = v
}

// NumRows returns the number of encoded rows.
func (t *Table) NumRows() int { return len(t.src) }

// MemBytes estimates the encoding's resident size: typed banks, null
// bitmaps, segment headers, and dictionary strings. The aliased source
// rows are excluded — they belong to the storage layer and exist
// whether or not the encoding does.
func (t *Table) MemBytes() int64 {
	var b int64
	for _, seg := range t.Segs {
		b += int64(len(seg.Cols)) * 8 // Col headers (approx; slices dominate)
		for c := range seg.Cols {
			col := &seg.Cols[c]
			b += 8*int64(cap(col.Ints)) + 8*int64(cap(col.Floats)) +
				4*int64(cap(col.Codes)) + 8*int64(cap(col.nulls))
		}
	}
	for _, d := range t.Dicts {
		if d == nil {
			continue
		}
		for _, s := range d.Vals {
			b += 16 + int64(len(s)) // string header + bytes
		}
		b += int64(len(d.idx)) * 24 // map entry approx
	}
	return b
}

// Segment returns the segment containing global row g and g's local
// index within it.
func (t *Table) Segment(g int) (*Segment, int) {
	return t.Segs[g/t.SegSize], g % t.SegSize
}

// Aligned reports whether rows is exactly the encoded rows [base,
// base+len(rows)) — same backing array, not merely equal values. The
// engine uses this to prove a mini-batch slice and the columnar cache
// describe the same tuples before switching to the columnar path.
func (t *Table) Aligned(rows []types.Row, base int) bool {
	if len(rows) == 0 {
		return true
	}
	if base < 0 || base+len(rows) > len(t.src) {
		return false
	}
	return &t.src[base] == &rows[0]
}

// Value scans one cell back to a types.Value (the round-trip contract:
// equal to the source row's value, including NULL and dictionary
// strings). Mixed columns read from the aliased source rows.
func (t *Table) Value(seg *Segment, c, i int) types.Value {
	if t.Mixed[c] {
		row := seg.Rows[i]
		if c >= len(row) {
			return types.Null
		}
		return row[c]
	}
	col := &seg.Cols[c]
	if col.Null(i) {
		return types.Null
	}
	switch t.Schema[c].Type {
	case types.KindInt:
		return types.NewInt(col.Ints[i])
	case types.KindBool:
		return types.NewBool(col.Ints[i] != 0)
	case types.KindFloat:
		return types.NewFloat(col.Floats[i])
	case types.KindString:
		return types.NewString(t.Dicts[c].Vals[col.Codes[i]])
	default:
		return types.Null
	}
}

// Row scans global row g back into buf (grown as needed).
func (t *Table) Row(g int, buf types.Row) types.Row {
	seg, i := t.Segment(g)
	if cap(buf) < len(t.Schema) {
		buf = make(types.Row, len(t.Schema))
	}
	buf = buf[:len(t.Schema)]
	for c := range t.Schema {
		buf[c] = t.Value(seg, c, i)
	}
	return buf
}

// Float reads a numeric/boolean cell as float64 (the aggregate-input
// view, mirroring types.Value.AsFloat). ok is false for NULL and for
// non-numeric declared kinds.
func (t *Table) Float(seg *Segment, c, i int) (float64, bool) {
	col := &seg.Cols[c]
	if col.Null(i) {
		return 0, false
	}
	switch t.Schema[c].Type {
	case types.KindInt, types.KindBool:
		return float64(col.Ints[i]), true
	case types.KindFloat:
		return col.Floats[i], true
	default:
		return 0, false
	}
}

// KeyWord is the physical group-key code of one cell: a 64-bit word
// that is equal for equal stored values of the same column (distinct
// words may still compare equal under types.Equal — e.g. -0.0 and 0.0 —
// which is why key-word memos must resolve through the canonical path
// on first sight rather than asserting uniqueness).
func (t *Table) KeyWord(seg *Segment, c, i int) (word uint64, null bool) {
	col := &seg.Cols[c]
	if col.Null(i) {
		return 0, true
	}
	switch t.Schema[c].Type {
	case types.KindInt, types.KindBool:
		return uint64(col.Ints[i]), false
	case types.KindFloat:
		return math.Float64bits(col.Floats[i]), false
	case types.KindString:
		return uint64(col.Codes[i]), false
	default:
		return 0, true
	}
}
