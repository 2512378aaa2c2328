package data

import (
	"sort"
	"strings"
)

// Record is a single data quantum: an ordered tuple of values. Records
// are small value types; copying one copies only the field-slice header.
// Operators must treat records as immutable — derive new records with
// WithField, Project, or Concat instead of writing through Fields.
type Record struct {
	fields []Value
}

// NewRecord builds a record from the given values. The slice is owned by
// the record afterwards.
func NewRecord(vals ...Value) Record { return Record{fields: vals} }

// Len reports the number of fields.
func (r Record) Len() int { return len(r.fields) }

// Field returns field i. It panics if i is out of range, mirroring slice
// indexing; plan validation catches arity mismatches before execution.
func (r Record) Field(i int) Value { return r.fields[i] }

// Fields returns the underlying field slice. Callers must not mutate it.
func (r Record) Fields() []Value { return r.fields }

// WithField returns a copy of the record with field i replaced.
func (r Record) WithField(i int, v Value) Record {
	out := make([]Value, len(r.fields))
	copy(out, r.fields)
	out[i] = v
	return Record{fields: out}
}

// Append returns a new record with the given values appended.
func (r Record) Append(vals ...Value) Record {
	out := make([]Value, 0, len(r.fields)+len(vals))
	out = append(out, r.fields...)
	out = append(out, vals...)
	return Record{fields: out}
}

// Project returns a new record containing the selected fields in order.
func (r Record) Project(idx ...int) Record {
	out := make([]Value, len(idx))
	for i, j := range idx {
		out[i] = r.fields[j]
	}
	return Record{fields: out}
}

// Concat returns the concatenation of two records, the standard join
// output shape.
func Concat(l, r Record) Record {
	out := make([]Value, 0, len(l.fields)+len(r.fields))
	out = append(out, l.fields...)
	out = append(out, r.fields...)
	return Record{fields: out}
}

// CompareRecords orders records field-by-field (shorter records sort
// first on a shared prefix).
func CompareRecords(a, b Record) int {
	n := len(a.fields)
	if len(b.fields) < n {
		n = len(b.fields)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a.fields[i], b.fields[i]); c != 0 {
			return c
		}
	}
	return len(a.fields) - len(b.fields)
}

// EqualRecords reports field-wise equality under Equal.
func EqualRecords(a, b Record) bool {
	if len(a.fields) != len(b.fields) {
		return false
	}
	for i := range a.fields {
		if !Equal(a.fields[i], b.fields[i]) {
			return false
		}
	}
	return true
}

// HashRecord hashes all fields of a record with the given seed.
func HashRecord(r Record, seed uint64) uint64 {
	h := fnvOffset ^ seed
	for _, v := range r.fields {
		h = hashUint64(h, Hash(v, seed))
	}
	return h
}

// String renders the record as a parenthesised, comma-separated tuple.
func (r Record) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r.fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// SortRecords sorts records in place under CompareRecords. Sort-based
// physical operators use it as their common ordering primitive.
func SortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return CompareRecords(recs[i], recs[j]) < 0 })
}

// SortRecordsBy sorts records in place by a derived key value.
func SortRecordsBy(recs []Record, key func(Record) Value) {
	sort.SliceStable(recs, func(i, j int) bool { return Compare(key(recs[i]), key(recs[j])) < 0 })
}

// Bytes estimates the in-memory footprint of the record in bytes. The
// channel conversion graph and the shuffle model use it to account for
// data movement volume; it is an estimate, not an exact allocation size.
func (r Record) Bytes() int {
	n := 16 // slice header + kind tags, amortised
	for _, v := range r.fields {
		switch v.kind {
		case KindString:
			n += 16 + int(v.n)
		case KindVector:
			n += 24 + 8*int(v.n)
		default:
			n += 16
		}
	}
	return n
}

// TotalBytes sums Bytes over a batch of records.
func TotalBytes(recs []Record) int64 {
	var n int64
	for _, r := range recs {
		n += int64(r.Bytes())
	}
	return n
}

// CloneRecords returns a shallow copy of the batch (the records
// themselves are immutable, so sharing field slices is safe).
func CloneRecords(recs []Record) []Record {
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}
