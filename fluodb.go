// Package fluodb is a parallel online query execution engine
// implementing G-OLA (Generalized On-Line Aggregation, SIGMOD 2015): it
// answers OLAP SQL queries — including arbitrarily nested aggregate
// subqueries — by streaming random mini-batches of the data and
// presenting continuously refined approximate answers with bootstrap
// confidence intervals, which the caller can stop as soon as the
// accuracy suffices.
//
// Basic usage:
//
//	db := fluodb.Open()
//	t := db.CreateTable("sessions", fluodb.NewSchema(
//	    "buffer_time", fluodb.KindFloat, "play_time", fluodb.KindFloat))
//	t.Append(fluodb.Row{fluodb.Float(12.5), fluodb.Float(340)})
//	...
//	exact, err := db.Query(`SELECT AVG(play_time) FROM sessions`)
//
// Online execution with progressive refinement:
//
//	oq, err := db.QueryOnline(`SELECT AVG(play_time) FROM sessions
//	    WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`,
//	    fluodb.OnlineOptions{Batches: 50})
//	for !oq.Done() {
//	    snap, err := oq.Step()
//	    // snap.Rows carries point estimates + confidence intervals;
//	    // stop whenever snap.RSD() is small enough (it is +Inf while
//	    // no cell has an error estimate yet).
//	}
package fluodb

import (
	"io"

	"fluodb/internal/exec"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
)

// DB is an in-memory FluoDB database: a catalog of tables plus the
// batch and online execution engines.
type DB struct {
	cat *storage.Catalog
}

// Open creates an empty database.
func Open() *DB {
	return &DB{cat: storage.NewCatalog()}
}

// Table is a handle to a stored table.
type Table struct {
	db *DB
	t  *storage.Table
}

// CreateTable registers a new empty table, replacing any table with the
// same name.
func (db *DB) CreateTable(name string, schema Schema) *Table {
	t := storage.NewTable(name, schema)
	db.cat.Put(t)
	return &Table{db: db, t: t}
}

// Table looks up a table handle by name.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.cat.Get(name)
	if !ok {
		return nil, false
	}
	return &Table{db: db, t: t}, true
}

// DropTable removes a table; it reports whether the table existed.
func (db *DB) DropTable(name string) bool { return db.cat.Drop(name) }

// TableNames lists the registered tables, sorted.
func (db *DB) TableNames() []string { return db.cat.Names() }

// LoadCSV reads a table from a typed-header CSV stream (see SaveCSV)
// and registers it under the given name.
func (db *DB) LoadCSV(name string, r io.Reader) (*Table, error) {
	t, err := storage.ReadCSV(name, r)
	if err != nil {
		return nil, err
	}
	db.cat.Put(t)
	return &Table{db: db, t: t}, nil
}

// LoadCSVFile is LoadCSV over a file path.
func (db *DB) LoadCSVFile(name, path string) (*Table, error) {
	t, err := storage.LoadCSVFile(name, path)
	if err != nil {
		return nil, err
	}
	db.cat.Put(t)
	return &Table{db: db, t: t}, nil
}

// Append adds one row.
func (t *Table) Append(row Row) error { return t.t.Append(row) }

// AppendAll adds many rows.
func (t *Table) AppendAll(rows []Row) error { return t.t.AppendAll(rows) }

// Name returns the table name.
func (t *Table) Name() string { return t.t.Name() }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.t.Schema() }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.t.NumRows() }

// Rows exposes the stored rows; callers must not mutate them.
func (t *Table) Rows() []Row { return t.t.Rows() }

// SaveCSV writes the table with a typed header row ("name:type").
func (t *Table) SaveCSV(w io.Writer) error { return t.t.WriteCSV(w) }

// SaveCSVFile is SaveCSV over a file path.
func (t *Table) SaveCSVFile(path string) error { return t.t.SaveCSVFile(path) }

// Shuffle randomly permutes the table in place (registering the
// permuted copy under the same name). This is the pre-processing step
// of §2: after shuffling, any prefix of the table is a uniform random
// sample, which online execution relies on when the physical data order
// correlates with query attributes.
func (t *Table) Shuffle(seed int64) {
	t.t = t.t.Shuffled(seed)
	t.db.cat.Put(t.t)
}

// Result is a materialized exact query result.
type Result struct {
	Schema Schema
	Rows   []Row
}

// Query parses, plans and executes a SQL query exactly over the full
// data (the traditional batched execution baseline).
func (db *DB) Query(sql string) (*Result, error) {
	q, err := plan.Compile(sql, db.cat)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(q, db.cat)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: res.Schema, Rows: res.Rows}, nil
}

// Explain returns the compiled lineage-block plan of a query: one SPJA
// block per nested aggregate subquery plus the root, with the broadcast
// parameters ($0, $1, ...) connecting them.
func (db *DB) Explain(sql string) (string, error) {
	q, err := plan.Compile(sql, db.cat)
	if err != nil {
		return "", err
	}
	return q.Explain(), nil
}

// SaveDir persists every table as a typed-header CSV under dir
// (creating it if needed).
func (db *DB) SaveDir(dir string) error { return db.cat.SaveDir(dir) }

// OpenDir loads a database persisted with SaveDir (or any directory of
// typed-header CSVs; file stems become table names).
func OpenDir(dir string) (*DB, error) {
	cat, err := storage.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return &DB{cat: cat}, nil
}
