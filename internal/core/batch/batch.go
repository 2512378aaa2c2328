// Package batch implements RHEEM's columnar in-memory format: typed
// slices per column with a validity bitmap, the representation Shark
// showed is the decisive lever against the row-at-a-time tax at the
// abstraction layer. A Batch is exchanged between platforms through
// the channel conversion graph (channel.Batch); vectorized execution
// operators loop over its columns without boxing values, and a Slice
// of one is a zero-copy column view.
//
// The format is lossless over the full data.Record model. Columns
// whose values are uniformly one scalar kind become typed slices
// (int64 / float64 / string / bool) with nulls tracked in an
// Bitset validity bitmap; columns mixing kinds or holding vectors
// fall back to a generic []data.Value column; a ragged record set
// (records of differing arity) is carried as rows behind the same
// Batch interface. ToRecords therefore always reproduces the source
// records exactly — byte-identical under the canonical binary
// encoding — no matter the shape of the input.
package batch

import (
	"fmt"

	"rheem/internal/data"
)

// ColKind enumerates the physical representations a column can take.
type ColKind uint8

// Column representations. Typed columns store one Go scalar per row;
// ColAny is the lossless fallback for mixed-kind and vector columns.
const (
	ColInt64 ColKind = iota
	ColFloat64
	ColString
	ColBool
	ColAny
)

// String returns the column kind's name.
func (k ColKind) String() string {
	switch k {
	case ColInt64:
		return "int64"
	case ColFloat64:
		return "float64"
	case ColString:
		return "string"
	case ColBool:
		return "bool"
	case ColAny:
		return "any"
	default:
		return fmt.Sprintf("ColKind(%d)", uint8(k))
	}
}

// Column is one column of a batch: exactly one of the typed slices is
// populated according to Kind. Valid marks non-null rows for typed
// columns; a nil Valid means every row is valid. Because zero-copy
// views sub-slice the typed storage but share the validity bitmap,
// row i of a view maps to bit view.Off()+i of Valid. ColAny columns
// carry nulls as data.Null values and never use Valid.
type Column struct {
	Kind     ColKind
	Int64s   []int64
	Float64s []float64
	Strings  []string
	Bools    []bool
	Any      []data.Value
	Valid    *Bitset
}

// length returns the populated slice's length.
func (c *Column) length() int {
	switch c.Kind {
	case ColInt64:
		return len(c.Int64s)
	case ColFloat64:
		return len(c.Float64s)
	case ColString:
		return len(c.Strings)
	case ColBool:
		return len(c.Bools)
	default:
		return len(c.Any)
	}
}

// Slice returns the zero-copy [lo, hi) view of the column. The validity
// bitmap is shared, not re-based; the caller tracks the offset.
func (c Column) Slice(lo, hi int) Column {
	switch c.Kind {
	case ColInt64:
		c.Int64s = c.Int64s[lo:hi]
	case ColFloat64:
		c.Float64s = c.Float64s[lo:hi]
	case ColString:
		c.Strings = c.Strings[lo:hi]
	case ColBool:
		c.Bools = c.Bools[lo:hi]
	default:
		c.Any = c.Any[lo:hi]
	}
	return c
}

// ValidAt reports whether row i of a view with validity offset off is
// non-null. ColAny columns track nulls in the values themselves.
func (c *Column) ValidAt(off, i int) bool {
	if c.Kind == ColAny {
		return !c.Any[i].IsNull()
	}
	return c.Valid == nil || c.Valid.Get(off+i)
}

// Value materialises row i (with validity offset off) as a data.Value.
func (c *Column) Value(off, i int) data.Value {
	if c.Kind == ColAny {
		return c.Any[i]
	}
	if c.Valid != nil && !c.Valid.Get(off+i) {
		return data.Null()
	}
	switch c.Kind {
	case ColInt64:
		return data.Int(c.Int64s[i])
	case ColFloat64:
		return data.Float(c.Float64s[i])
	case ColString:
		return data.Str(c.Strings[i])
	default:
		return data.Bool(c.Bools[i])
	}
}

// Reset makes the column n all-valid zero rows of a typed kind, reusing
// the storage it holds where that is large enough — storage that may have
// served another job, which is why the rows are cleared and not left as
// they were: a row the caller does not write reads zero, whoever held the
// storage before.
func (c *Column) Reset(kind ColKind, n int) {
	c.Kind, c.Valid = kind, nil
	switch kind {
	case ColInt64:
		c.Int64s = zeroed(c.Int64s, n)
	case ColFloat64:
		c.Float64s = zeroed(c.Float64s, n)
	case ColString:
		c.Strings = zeroed(c.Strings, n)
	case ColBool:
		c.Bools = zeroed(c.Bools, n)
	default:
		c.Any = zeroed(c.Any, n)
	}
}

// zeroed returns s resized to n zero elements.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// Put stores v as row i of a typed column and reports whether it could:
// a null, or a value of another kind than the column's, is not stored.
func (c *Column) Put(i int, v data.Value) bool {
	switch {
	case c.Kind == ColInt64 && v.Kind() == data.KindInt:
		c.Int64s[i] = v.Int()
	case c.Kind == ColFloat64 && v.Kind() == data.KindFloat:
		c.Float64s[i] = v.Float()
	case c.Kind == ColString && v.Kind() == data.KindString:
		c.Strings[i] = v.Str()
	case c.Kind == ColBool && v.Kind() == data.KindBool:
		c.Bools[i] = v.Bool()
	default:
		return false
	}
	return true
}

// Batch is a columnar view over n records. The zero value is an empty
// batch. Views produced by Slice share column storage and validity
// bitmaps with their parent.
type Batch struct {
	cols []Column
	n    int
	off  int // validity-bitmap offset of row 0 in shared Valid bitsets

	// rows is the lossless fallback for ragged record sets, which have
	// no rectangular column decomposition. When set, cols is empty.
	rows []data.Record
}

// FromRecords builds a batch from records. The records themselves are
// never mutated; string and vector payloads are shared, not copied.
// Rectangular scalar inputs become typed columns; anything else takes
// a lossless fallback representation (see package comment), so the
// conversion is total.
//
// Naming cols transposes only those fields, in that order: the result
// is FromRecords(recs).Project(cols...) without the work of building
// the columns the projection drops, and like Project it panics on an
// index outside the records. Ragged input has no column to select and
// comes back row-backed and whole, whatever cols says.
func FromRecords(recs []data.Record, cols ...int) *Batch {
	n := len(recs)
	if n == 0 {
		return &Batch{}
	}
	w, ok := Width(recs)
	if !ok {
		return &Batch{rows: recs, n: n}
	}
	if len(cols) == 0 {
		cols = make([]int, w)
		for c := range cols {
			cols[c] = c
		}
	}
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i].Fill(recs, c)
	}
	return &Batch{cols: out, n: n}
}

// Width returns the arity recs share; ok is false when they are ragged
// and have no column form.
func Width(recs []data.Record) (w int, ok bool) {
	if len(recs) == 0 {
		return 0, true
	}
	w = recs[0].Len()
	for i := 1; i < len(recs); i++ {
		if recs[i].Len() != w {
			return 0, false
		}
	}
	return w, true
}

// Fill transposes field c of recs into col, at validity offset zero. It
// is the one transposition path: FromRecords is Fill over the whole
// input into fresh columns, a vector-at-a-time reader calls it once per
// window on columns it keeps, and typed storage col already holds is
// reused where it is large enough. recs must be rectangular (Width)
// and c inside them.
//
// The representation is decided and filled in a single speculative
// pass: the first non-null value picks a typed representation; a later
// value of another kind abandons the attempt for the generic fallback
// (mixed columns are ColAny anyway, so only they pay the restart). The
// conversion is on the columnar hot path — every Collection/Table →
// Batch edge runs it over the whole input — which is why it avoids a
// separate kind-scan pass.
func (col *Column) Fill(recs []data.Record, c int) {
	start := 0
	for start < len(recs) && recs[start].Field(c).IsNull() {
		start++
	}
	typed := false
	if start < len(recs) {
		switch recs[start].Field(c).Kind() {
		case data.KindInt:
			typed = col.fillInt64(recs, c, start)
		case data.KindFloat:
			typed = col.fillFloat64(recs, c, start)
		case data.KindString:
			typed = col.fillString(recs, c, start)
		case data.KindBool:
			typed = col.fillBool(recs, c, start)
		}
	}
	if typed {
		return
	}
	// The lossless fallback: vectors, mixed kinds, all null.
	col.Kind, col.Valid, col.Any = ColAny, nil, grow(col.Any, len(recs))
	for i := range recs {
		col.Any[i] = recs[i].Field(c)
	}
}

// grow returns s resized to n elements, reallocating only when its
// capacity is too small. The contents are whatever s held.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// leadingNulls starts the validity bitmap of a column whose first start
// rows are null, zeroing their (possibly reused) slots.
func leadingNulls[T any](vals []T, start int) *Bitset {
	if start == 0 {
		return nil
	}
	clear(vals[:start])
	return NewBitset(len(vals))
}

// markNull lazily materialises the validity bitmap on the first null:
// rows [start, i) of the speculative fill were all valid, rows before
// start all null.
func markNull(valid *Bitset, n, start, i int) *Bitset {
	if valid == nil {
		valid = NewBitset(n)
		for j := start; j < i; j++ {
			valid.Set(j)
		}
	}
	return valid
}

// The typed fill loops. All four are the same shape: store the scalar,
// track validity only once a null has appeared, report false on a kind
// mismatch so Fill takes the generic representation.

func (col *Column) fillInt64(recs []data.Record, c, start int) bool {
	n := len(recs)
	vals := grow(col.Int64s, n)
	col.Int64s = vals
	valid := leadingNulls(vals, start)
	for i := start; i < n; i++ {
		v := recs[i].Field(c)
		switch v.Kind() {
		case data.KindInt:
			vals[i] = v.Int()
			if valid != nil {
				valid.Set(i)
			}
		case data.KindNull:
			valid, vals[i] = markNull(valid, n, start, i), 0
		default:
			return false
		}
	}
	col.Kind, col.Valid = ColInt64, valid
	return true
}

func (col *Column) fillFloat64(recs []data.Record, c, start int) bool {
	n := len(recs)
	vals := grow(col.Float64s, n)
	col.Float64s = vals
	valid := leadingNulls(vals, start)
	for i := start; i < n; i++ {
		v := recs[i].Field(c)
		switch v.Kind() {
		case data.KindFloat:
			vals[i] = v.Float()
			if valid != nil {
				valid.Set(i)
			}
		case data.KindNull:
			valid, vals[i] = markNull(valid, n, start, i), 0
		default:
			return false
		}
	}
	col.Kind, col.Valid = ColFloat64, valid
	return true
}

func (col *Column) fillString(recs []data.Record, c, start int) bool {
	n := len(recs)
	vals := grow(col.Strings, n)
	col.Strings = vals
	valid := leadingNulls(vals, start)
	for i := start; i < n; i++ {
		v := recs[i].Field(c)
		switch v.Kind() {
		case data.KindString:
			vals[i] = v.Str()
			if valid != nil {
				valid.Set(i)
			}
		case data.KindNull:
			valid, vals[i] = markNull(valid, n, start, i), ""
		default:
			return false
		}
	}
	col.Kind, col.Valid = ColString, valid
	return true
}

func (col *Column) fillBool(recs []data.Record, c, start int) bool {
	n := len(recs)
	vals := grow(col.Bools, n)
	col.Bools = vals
	valid := leadingNulls(vals, start)
	for i := start; i < n; i++ {
		v := recs[i].Field(c)
		switch v.Kind() {
		case data.KindBool:
			vals[i] = v.Bool()
			if valid != nil {
				valid.Set(i)
			}
		case data.KindNull:
			valid, vals[i] = markNull(valid, n, start, i), false
		default:
			return false
		}
	}
	col.Kind, col.Valid = ColBool, valid
	return true
}

// New assembles a batch of n rows from freshly built columns (validity
// offset zero). Every column's storage must hold exactly n rows.
func New(n int, cols []Column) (*Batch, error) {
	for i := range cols {
		if got := cols[i].length(); got != n {
			return nil, fmt.Errorf("batch: column %d holds %d rows, batch wants %d", i, got, n)
		}
	}
	return &Batch{cols: cols, n: n}, nil
}

// FromRows wraps records in a fallback row-backed batch without
// attempting a columnar decomposition.
func FromRows(recs []data.Record) *Batch {
	return &Batch{rows: recs, n: len(recs)}
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// NumCols returns the number of columns (0 for row-backed batches).
func (b *Batch) NumCols() int { return len(b.cols) }

// Col returns column c. The returned struct shares storage with the
// batch; callers must not mutate the slices.
func (b *Batch) Col(c int) *Column { return &b.cols[c] }

// Off returns the validity-bitmap offset of row 0 — pass it to
// Column.ValidAt / Column.Value when reading this batch's columns.
func (b *Batch) Off() int { return b.off }

// Columnar reports whether the batch has a column decomposition.
// Row-backed fallback batches (ragged inputs) return false; note the
// empty batch is columnar with zero columns.
func (b *Batch) Columnar() bool { return b.rows == nil }

// Rows returns the fallback row representation, or nil for columnar
// batches. Callers must not mutate the returned slice.
func (b *Batch) Rows() []data.Record { return b.rows }

// Slice returns the zero-copy [lo, hi) row view. Bounds are clamped to
// the batch like slice expressions clamp to capacity.
func (b *Batch) Slice(lo, hi int) *Batch {
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo > hi {
		lo = hi
	}
	if b.rows != nil {
		return &Batch{rows: b.rows[lo:hi], n: hi - lo}
	}
	cols := make([]Column, len(b.cols))
	for c := range b.cols {
		cols[c] = b.cols[c].Slice(lo, hi)
	}
	return &Batch{cols: cols, n: hi - lo, off: b.off + lo}
}

// Project returns the zero-copy batch keeping the selected columns in
// order. It panics on a row-backed batch or an out-of-range index,
// like Record.Project panics on a bad field index.
func (b *Batch) Project(idx ...int) *Batch {
	if b.rows != nil {
		panic("batch: Project on a row-backed batch")
	}
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = b.cols[j]
	}
	return &Batch{cols: cols, n: b.n, off: b.off}
}

// ToRecords materialises the batch back into records. For columnar
// batches the result is freshly allocated; for row-backed batches the
// underlying rows are returned directly (records are immutable, so
// sharing is safe — treat the result as read-only).
func (b *Batch) ToRecords() []data.Record {
	if b.rows != nil {
		return b.rows
	}
	w := len(b.cols)
	out := make([]data.Record, b.n)
	if w == 0 {
		for i := range out {
			out[i] = data.NewRecord()
		}
		return out
	}
	// One backing array for all field slices keeps the materialisation
	// a single allocation instead of one per record.
	backing := make([]data.Value, b.n*w)
	for i := 0; i < b.n; i++ {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for c := range b.cols {
			row[c] = b.cols[c].Value(b.off, i)
		}
		out[i] = data.NewRecord(row...)
	}
	return out
}

// Bytes estimates the in-memory footprint using the same accounting as
// data.Record.Bytes, so channel metadata (and therefore conversion
// pricing and the virtual clock) is identical whether a dataset flows
// as rows or as a batch.
func (b *Batch) Bytes() int64 {
	if b.rows != nil {
		return data.TotalBytes(b.rows)
	}
	total := int64(b.n) * 16 // per-record base
	for c := range b.cols {
		col := &b.cols[c]
		switch col.Kind {
		case ColString:
			total += int64(b.n) * 16
			for i, s := range col.Strings {
				if col.ValidAt(b.off, i) {
					total += int64(len(s))
				}
			}
		case ColAny:
			for i := range col.Any {
				v := col.Any[i]
				switch v.Kind() {
				case data.KindString:
					total += 16 + int64(len(v.Str()))
				case data.KindVector:
					total += 24 + 8*int64(len(v.Vec()))
				default:
					total += 16
				}
			}
		default:
			total += int64(b.n) * 16
		}
	}
	return total
}
