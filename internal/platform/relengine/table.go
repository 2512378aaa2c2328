// Package relengine is a from-scratch mini relational engine — the
// reproduction's stand-in for the PostgreSQL of the paper's §1 example
// ("one may aggregate large datasets with traditional queries on top of
// a relational database such as PostgreSQL, but ML tasks might be much
// faster if executed on Spark"). See DESIGN.md §3.
//
// The engine executes RHEEM physical plans statement by statement over
// tables, with a simulated-time profile that favours relational
// operators (compiled aggregation, joins) and penalises opaque
// per-tuple UDF calls — the asymmetry that makes mixed pipelines split
// across platforms in the multi-platform experiments (E5). The tables
// and that clock are what the platform owns; what an operator computes
// on a table's rows is algo.Exec's, the definition every platform
// shares.
package relengine

import "rheem/internal/data"

// Table is the engine's native dataset: an immutable snapshot of rows —
// a loaded source, a statement's result or a converted channel. No
// catalog holds it, so an intermediate lives exactly as long as its last
// reader.
type Table struct {
	rows []data.Record
}

// NumRows reports the table's row count.
func (t *Table) NumRows() int { return len(t.rows) }
