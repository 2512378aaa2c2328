// Package relengine is a from-scratch mini relational engine — the
// reproduction's stand-in for the PostgreSQL of the paper's §1 example
// ("one may aggregate large datasets with traditional queries on top of
// a relational database such as PostgreSQL, but ML tasks might be much
// faster if executed on Spark"). See DESIGN.md §3.
//
// The engine has two faces. As a *substrate* it is a small but real
// relational store: a catalog of schema-typed tables with insert,
// scan, and hash/ordered indexes with point and range lookups. As a
// *platform* it executes RHEEM physical plans over tables, with a
// simulated-time profile that favours relational operators (compiled
// aggregation, joins) and penalises opaque per-tuple UDF calls — the
// asymmetry that makes mixed pipelines split across platforms in the
// multi-platform experiments (E5). The tables and that clock are what
// the platform owns; what an operator computes on a table's rows is
// algo.Exec's, the definition every platform shares.
package relengine

import (
	"fmt"
	"sort"
	"sync"

	"rheem/internal/data"
)

// Table is a named, schema-typed row store.
type Table struct {
	Name   string
	Schema *data.Schema
	rows   []data.Record

	mu      sync.RWMutex
	hashIdx map[int]*hashIndex
	ordIdx  map[int]*orderedIndex
}

// hashIndex maps column-value hashes to row positions, chaining on
// collisions.
type hashIndex struct {
	col int
	m   map[uint64][]int
}

// orderedIndex keeps row positions sorted by column value for range
// scans.
type orderedIndex struct {
	col  int
	rows []int // row positions ordered by column value
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

// Insert appends rows after validating them against the schema, and
// maintains any indexes.
func (t *Table) Insert(rows ...data.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if err := t.Schema.Validate(r); err != nil {
			return fmt.Errorf("relengine: insert into %s: %w", t.Name, err)
		}
	}
	for _, r := range rows {
		pos := len(t.rows)
		t.rows = append(t.rows, r)
		for _, idx := range t.hashIdx {
			h := data.Hash(r.Field(idx.col), 0)
			idx.m[h] = append(idx.m[h], pos)
		}
		for _, idx := range t.ordIdx {
			// Insertion into the sorted position keeps lookups valid;
			// bulk loads should create the index after inserting.
			v := r.Field(idx.col)
			at := sort.Search(len(idx.rows), func(i int) bool {
				return data.Compare(t.rows[idx.rows[i]].Field(idx.col), v) > 0
			})
			idx.rows = append(idx.rows, 0)
			copy(idx.rows[at+1:], idx.rows[at:])
			idx.rows[at] = pos
		}
	}
	return nil
}

// CreateHashIndex builds a hash index over the named column, enabling
// LookupEq point queries.
func (t *Table) CreateHashIndex(column string) error {
	col := t.Schema.IndexOf(column)
	if col < 0 {
		return fmt.Errorf("relengine: no column %q in %s", column, t.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := &hashIndex{col: col, m: make(map[uint64][]int, len(t.rows))}
	for pos, r := range t.rows {
		h := data.Hash(r.Field(col), 0)
		idx.m[h] = append(idx.m[h], pos)
	}
	if t.hashIdx == nil {
		t.hashIdx = map[int]*hashIndex{}
	}
	t.hashIdx[col] = idx
	return nil
}

// CreateOrderedIndex builds an ordered index over the named column,
// enabling LookupRange queries.
func (t *Table) CreateOrderedIndex(column string) error {
	col := t.Schema.IndexOf(column)
	if col < 0 {
		return fmt.Errorf("relengine: no column %q in %s", column, t.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := &orderedIndex{col: col, rows: make([]int, len(t.rows))}
	for i := range t.rows {
		idx.rows[i] = i
	}
	sort.SliceStable(idx.rows, func(a, b int) bool {
		return data.Compare(t.rows[idx.rows[a]].Field(col), t.rows[idx.rows[b]].Field(col)) < 0
	})
	if t.ordIdx == nil {
		t.ordIdx = map[int]*orderedIndex{}
	}
	t.ordIdx[col] = idx
	return nil
}

// LookupEq returns the rows whose column equals v, via the hash index
// if one exists or a scan otherwise. The second result reports whether
// an index served the query.
func (t *Table) LookupEq(column string, v data.Value) ([]data.Record, bool, error) {
	col := t.Schema.IndexOf(column)
	if col < 0 {
		return nil, false, fmt.Errorf("relengine: no column %q in %s", column, t.Name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.hashIdx[col]; ok {
		var out []data.Record
		for _, pos := range idx.m[data.Hash(v, 0)] {
			if data.Equal(t.rows[pos].Field(col), v) {
				out = append(out, t.rows[pos])
			}
		}
		return out, true, nil
	}
	var out []data.Record
	for _, r := range t.rows {
		if data.Equal(r.Field(col), v) {
			out = append(out, r)
		}
	}
	return out, false, nil
}

// LookupRange returns rows with lo ≤ column ≤ hi (nil bounds are open),
// via the ordered index if one exists or a scan otherwise.
func (t *Table) LookupRange(column string, lo, hi *data.Value) ([]data.Record, bool, error) {
	col := t.Schema.IndexOf(column)
	if col < 0 {
		return nil, false, fmt.Errorf("relengine: no column %q in %s", column, t.Name)
	}
	inRange := func(v data.Value) bool {
		if lo != nil && data.Compare(v, *lo) < 0 {
			return false
		}
		if hi != nil && data.Compare(v, *hi) > 0 {
			return false
		}
		return true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.ordIdx[col]; ok {
		start := 0
		if lo != nil {
			start = sort.Search(len(idx.rows), func(i int) bool {
				return data.Compare(t.rows[idx.rows[i]].Field(col), *lo) >= 0
			})
		}
		var out []data.Record
		for _, pos := range idx.rows[start:] {
			v := t.rows[pos].Field(col)
			if hi != nil && data.Compare(v, *hi) > 0 {
				break
			}
			out = append(out, t.rows[pos])
		}
		return out, true, nil
	}
	var out []data.Record
	for _, r := range t.rows {
		if inRange(r.Field(col)) {
			out = append(out, r)
		}
	}
	return out, false, nil
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
