// Package storage implements FluoDB's in-memory storage layer: tables,
// catalogs, CSV import/export, the random-shuffle pre-processing step of
// §2 (so any prefix of the data is a uniform sample), and the uniform
// mini-batch partitioning that drives G-OLA's execution model.
package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"

	"fluodb/internal/colstore"
	"fluodb/internal/types"
)

// Table is an in-memory relation.
type Table struct {
	name   string
	schema types.Schema
	rows   []types.Row

	colMu sync.Mutex
	col   *colstore.Table // lazy columnar encoding; see Columnar
}

// NewTable creates an empty table.
func NewTable(name string, schema types.Schema) *Table {
	return &Table{name: name, schema: schema}
}

// FromRows creates a table from pre-built rows (rows are not copied).
func FromRows(name string, schema types.Schema, rows []types.Row) *Table {
	return &Table{name: name, schema: schema, rows: rows}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows exposes the backing rows. Callers must not mutate them.
func (t *Table) Rows() []types.Row { return t.rows }

// Append adds a row after arity checking.
func (t *Table) Append(row types.Row) error {
	if len(row) != len(t.schema) {
		return fmt.Errorf("storage: %s expects %d columns, row has %d",
			t.name, len(t.schema), len(row))
	}
	t.rows = append(t.rows, row)
	return nil
}

// AppendAll adds many rows (no copy) after arity checking each.
func (t *Table) AppendAll(rows []types.Row) error {
	for _, r := range rows {
		if err := t.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// Columnar returns the table's columnar encoding, building it on first
// use and updating it incrementally after the row count changes
// (Append/AppendAll are the only mutators; they always change the
// count). Both encode segment by segment in parallel, one pass over
// each segment's rows, and merge the segments' local dictionaries in
// order, so codes equal a serial first-occurrence scan's (colstore
// package comment). Growth re-encodes only the open tail segment plus
// the appended suffix — sealed segments and dictionary codes are
// untouched (colstore.Table.Update). The encoding aliases the current backing
// rows, and consumers re-verify per batch with colstore.Table.Aligned
// before trusting it, so a stale cache can cause a slow row-path batch
// but never a wrong answer.
func (t *Table) Columnar() *colstore.Table {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.col == nil {
		t.col = colstore.Build(t.schema, t.rows, 0)
	} else if t.col.NumRows() != len(t.rows) {
		t.col.Update(t.rows)
	}
	return t.col
}

// DropColumnar releases the cached columnar encoding. The next Columnar
// call rebuilds it; until then consumers fall back to the row path
// (bit-identical by the colstore round-trip contract). Used by the
// engine's memory-budget degradation ladder.
func (t *Table) DropColumnar() {
	t.colMu.Lock()
	t.col = nil
	t.colMu.Unlock()
}

// ColumnarBytes reports the resident size of the cached columnar
// encoding (0 when none is cached).
func (t *Table) ColumnarBytes() int64 {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.col == nil {
		return 0
	}
	return t.col.MemBytes()
}

// Shuffled returns a new table with the rows randomly permuted using the
// given seed (Fisher–Yates). This is the pre-processing tool of §2 that
// makes any prefix of the data a uniform random sample, for datasets
// whose physical order correlates with query attributes.
func (t *Table) Shuffled(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]types.Row, len(t.rows))
	copy(rows, t.rows)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return &Table{name: t.name, schema: t.schema, rows: rows}
}

// MiniBatches splits the table into k batches of uniform size (the last
// batch absorbs the remainder, so sizes differ by at most len/k). It
// panics if k < 1; callers validate user input.
func (t *Table) MiniBatches(k int) [][]types.Row {
	if k < 1 {
		panic("storage: MiniBatches requires k >= 1")
	}
	if k > len(t.rows) && len(t.rows) > 0 {
		k = len(t.rows)
	}
	if len(t.rows) == 0 {
		return make([][]types.Row, k)
	}
	out := make([][]types.Row, 0, k)
	size := len(t.rows) / k
	for i := 0; i < k; i++ {
		lo := i * size
		hi := lo + size
		if i == k-1 {
			hi = len(t.rows)
		}
		out = append(out, t.rows[lo:hi])
	}
	return out
}

// header renders "name:KIND" CSV header cells.
func headerFor(schema types.Schema) []string {
	h := make([]string, len(schema))
	for i, c := range schema {
		h[i] = c.Name + ":" + kindTag(c.Type)
	}
	return h
}

func kindTag(k types.Kind) string {
	switch k {
	case types.KindBool:
		return "bool"
	case types.KindInt:
		return "int"
	case types.KindFloat:
		return "float"
	case types.KindString:
		return "string"
	default:
		return "null"
	}
}

func kindFromTag(tag string) (types.Kind, error) {
	switch strings.ToLower(tag) {
	case "bool":
		return types.KindBool, nil
	case "int", "bigint":
		return types.KindInt, nil
	case "float", "double":
		return types.KindFloat, nil
	case "string", "varchar":
		return types.KindString, nil
	default:
		return types.KindNull, fmt.Errorf("storage: unknown type tag %q", tag)
	}
}

// WriteCSV serializes the table with a typed header row (name:type).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headerFor(t.schema)); err != nil {
		return err
	}
	rec := make([]string, len(t.schema))
	for _, row := range t.rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table written by WriteCSV.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("storage: read CSV header: %w", err)
	}
	schema := make(types.Schema, len(head))
	for i, cell := range head {
		parts := strings.SplitN(cell, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("storage: header cell %q must be name:type", cell)
		}
		kind, err := kindFromTag(parts[1])
		if err != nil {
			return nil, err
		}
		schema[i] = types.Column{Name: parts[0], Type: kind}
	}
	t := NewTable(name, schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: read CSV row: %w", err)
		}
		row := make(types.Row, len(schema))
		for i, cell := range rec {
			v, err := types.ParseValue(cell, schema[i].Type)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// SaveCSVFile writes the table to a file path.
func (t *Table) SaveCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSVFile reads a table from a file path.
func LoadCSVFile(name, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(name, f)
}

// Catalog is a thread-safe table registry.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// Put registers a table under its (case-insensitive) name, replacing any
// previous table with the same name.
func (c *Catalog) Put(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[strings.ToLower(t.Name())] = t
}

// Get resolves a table by name.
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Drop removes a table; it reports whether the table existed.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	_, ok := c.tables[key]
	delete(c.tables, key)
	return ok
}

// Names lists registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
