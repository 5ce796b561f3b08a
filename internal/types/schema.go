package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// NewSchema builds a schema from alternating name/kind pairs, e.g.
// NewSchema("a", KindInt, "b", KindFloat). It panics on malformed input;
// it is intended for literals in tests and generators.
func NewSchema(pairs ...interface{}) Schema {
	if len(pairs)%2 != 0 {
		panic("types: NewSchema needs name/kind pairs")
	}
	s := make(Schema, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("types: NewSchema pair %d: name must be string", i/2))
		}
		kind, ok := pairs[i+1].(Kind)
		if !ok {
			panic(fmt.Sprintf("types: NewSchema pair %d: type must be Kind", i/2))
		}
		s = append(s, Column{Name: name, Type: kind})
	}
	return s
}

// ColumnIndex returns the index of the named column (case-insensitive),
// or -1 if absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a BIGINT, b DOUBLE)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple of values laid out in schema order.
type Row []Value

// Clone returns a deep copy of the row (Values are immutable, so a
// shallow copy of the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// HashKey hashes the projection of the row onto the given column indexes.
// It is consistent with KeyEqual.
func (r Row) HashKey(cols []int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h ^= r[c].Hash()
		h *= prime64
	}
	return h
}

// KeyEqual reports whether two rows agree on the given column indexes.
func KeyEqual(a, b Row, cols []int) bool {
	for _, c := range cols {
		if !Equal(a[c], b[c]) {
			return false
		}
	}
	return true
}

// KeyString renders the projection of the row onto cols as a canonical
// string, usable as a map key. It distinguishes NULL from "NULL" and 1
// from "1" via kind tags.
func (r Row) KeyString(cols []int) string {
	if len(cols) == 1 {
		return KeyString1(r[cols[0]])
	}
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		appendKey(&b, r[c])
	}
	return b.String()
}

// KeyString1 is the canonical key of a single value (the common
// single-column grouping fast path, avoiding slice allocation).
func KeyString1(v Value) string {
	switch v.kind {
	case KindNull:
		return "Z"
	case KindString:
		return "S" + v.s
	case KindBool, KindInt:
		// Integral numerics of magnitude < 2^53 print identically via
		// FormatInt and the shortest-float format, so the int fast path
		// stays consistent with float-valued keys.
		if v.i > -(1<<53) && v.i < 1<<53 {
			return "N" + strconv.FormatInt(v.i, 10)
		}
		f, _ := v.AsFloat()
		return "N" + NewFloat(f).String()
	default:
		f, _ := v.AsFloat()
		if f == math.Trunc(f) && f > -(1<<53) && f < 1<<53 {
			return "N" + strconv.FormatInt(int64(f), 10)
		}
		return "N" + NewFloat(f).String()
	}
}

// appendKey writes one value's canonical key segment.
func appendKey(b *strings.Builder, v Value) {
	switch v.kind {
	case KindNull:
		b.WriteByte('Z')
	case KindString:
		b.WriteByte('S')
		b.WriteString(v.s)
	default:
		rest := KeyString1(v)
		b.WriteString(rest)
	}
}

// String renders the row for debugging: "[1, 2.5, hello]".
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
