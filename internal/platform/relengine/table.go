// Package relengine is a from-scratch mini relational engine — the
// reproduction's stand-in for the PostgreSQL of the paper's §1 example
// ("one may aggregate large datasets with traditional queries on top of
// a relational database such as PostgreSQL, but ML tasks might be much
// faster if executed on Spark"). See DESIGN.md §3.
//
// The engine has two faces. As a *substrate* it is a small but real
// relational store: a catalog of schema-typed tables with insert and
// scan. As a *platform* it executes RHEEM physical plans over tables,
// with a simulated-time profile that favours relational operators
// (compiled aggregation, joins) and penalises opaque per-tuple UDF calls
// — the asymmetry that makes mixed pipelines split across platforms in
// the multi-platform experiments (E5). The tables and that clock are what
// the platform owns; what an operator computes on a table's rows is
// algo.Exec's, the definition every platform shares.
package relengine

import (
	"fmt"
	"sync"

	"rheem/internal/data"
)

// Table is a named, schema-typed row store.
type Table struct {
	Name   string
	Schema *data.Schema
	rows   []data.Record
	mu     sync.RWMutex
}

// NumRows reports the table's row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Rows returns a copy of the table's rows in insertion order.
func (t *Table) Rows() []data.Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return data.CloneRecords(t.rows)
}

// rowsUnsafe returns the live row slice for internal read-only use.
// The slice header is fetched under the read lock so concurrent
// Inserts (which may reallocate the backing array) never race the
// read; rows already in the snapshot are immutable.
func (t *Table) rowsUnsafe() []data.Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Insert appends rows after validating them against the schema.
func (t *Table) Insert(rows ...data.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if err := t.Schema.Validate(r); err != nil {
			return fmt.Errorf("relengine: insert into %s: %w", t.Name, err)
		}
	}
	t.rows = append(t.rows, rows...)
	return nil
}

// DB is the engine's catalog of tables.
type DB struct {
	mu      sync.Mutex
	tables  map[string]*Table
	tempSeq int
}

// NewDB returns an empty catalog.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable registers a new empty table.
func (db *DB) CreateTable(name string, schema *data.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("relengine: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema}
	db.tables[name] = t
	return t, nil
}

// Table resolves a table by name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	return t, ok
}

// DropTable removes a table from the catalog.
func (db *DB) DropTable(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, name)
}

// TableNames lists catalog entries in unspecified order.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// tempTable creates an anonymous intermediate-result table. Physical
// operators produce these; they live in the catalog under a reserved
// prefix so plans can be inspected, and are dropped by ReleaseTemp.
func (db *DB) tempTable(rows []data.Record) *Table {
	db.mu.Lock()
	db.tempSeq++
	name := fmt.Sprintf("_tmp_%d", db.tempSeq)
	t := &Table{Name: name, rows: rows}
	db.tables[name] = t
	db.mu.Unlock()
	return t
}

// ReleaseTemp drops all intermediate-result tables.
func (db *DB) ReleaseTemp() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for n := range db.tables {
		if len(n) > 5 && n[:5] == "_tmp_" {
			delete(db.tables, n)
		}
	}
}
