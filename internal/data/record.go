package data

import (
	"strings"
	"unsafe"
)

// Record is a single data quantum: an ordered tuple of values. Records
// are small value types; copying one copies only the field-slice pointer
// and length. Operators must treat records as immutable — derive new
// records with WithField, Project, or Concat instead of writing through
// Fields.
//
// Layout: two words, 16 bytes on 64-bit targets — the first field's
// address and the field count. The capacity of the slice given to
// NewRecord is not stored, so Fields() returns a slice with cap == len.
// Like Value, a Record is not comparable: compare records with
// EqualRecords (or CompareRecords), never with reflect.DeepEqual, which
// would compare field pointers, not contents. The zero Record has no
// fields and nil Fields().
type Record struct {
	_ [0]func() // not comparable
	p *Value
	n int
}

// NewRecord builds a record from the given values. The slice is owned by
// the record afterwards.
func NewRecord(vals ...Value) Record { return Record{p: unsafe.SliceData(vals), n: len(vals)} }

// Len reports the number of fields.
func (r Record) Len() int { return r.n }

// Field returns field i. It panics if i is out of range, mirroring slice
// indexing; plan validation catches arity mismatches before execution.
func (r Record) Field(i int) Value { return r.Fields()[i] }

// Fields returns the underlying field slice, with cap == len. Callers
// must not mutate it.
func (r Record) Fields() []Value { return unsafe.Slice(r.p, r.n) }

// WithField returns a copy of the record with field i replaced.
func (r Record) WithField(i int, v Value) Record {
	out := make([]Value, r.n)
	copy(out, r.Fields())
	out[i] = v
	return NewRecord(out...)
}

// Append returns a new record with the given values appended.
func (r Record) Append(vals ...Value) Record {
	out := make([]Value, 0, r.n+len(vals))
	out = append(out, r.Fields()...)
	out = append(out, vals...)
	return NewRecord(out...)
}

// Project returns a new record containing the selected fields in order.
func (r Record) Project(idx ...int) Record {
	fields := r.Fields()
	out := make([]Value, len(idx))
	for i, j := range idx {
		out[i] = fields[j]
	}
	return NewRecord(out...)
}

// Concat returns the concatenation of two records, the standard join
// output shape.
func Concat(l, r Record) Record {
	out := make([]Value, 0, l.n+r.n)
	out = append(out, l.Fields()...)
	out = append(out, r.Fields()...)
	return NewRecord(out...)
}

// CompareRecords orders records field-by-field (shorter records sort
// first on a shared prefix).
func CompareRecords(a, b Record) int {
	af, bf := a.Fields(), b.Fields()
	for i := range min(len(af), len(bf)) {
		if c := Compare(af[i], bf[i]); c != 0 {
			return c
		}
	}
	return len(af) - len(bf)
}

// EqualRecords reports field-wise equality under Equal.
func EqualRecords(a, b Record) bool {
	af, bf := a.Fields(), b.Fields()
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		if !Equal(af[i], bf[i]) {
			return false
		}
	}
	return true
}

// HashRecord hashes all fields of a record with the given seed.
func HashRecord(r Record, seed uint64) uint64 {
	h := fnvOffset ^ seed
	for _, v := range r.Fields() {
		h = hashUint64(h, Hash(v, seed))
	}
	return h
}

// String renders the record as a parenthesised, comma-separated tuple.
func (r Record) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r.Fields() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Bytes estimates the in-memory footprint of the record in bytes. The
// channel conversion graph and the shuffle model use it to account for
// data movement volume; it is a model, not an exact allocation size, and
// its constants are kept apart from the layout so that modelled costs do
// not move with it (for a record of scalars the two happen to agree: a
// 16-byte header and 16 bytes a field).
//
// It is the row path's byte count (every exit's and shuffle's), so it
// reads a field's layout directly: one range check tells a tag — a
// scalar, the empty string or the nil vector, whose payload is the tag
// itself — from a string's or vector's data, and only those read their
// length.
func (r Record) Bytes() int {
	n := 16 * (1 + r.n) // the record header, and 16 a field
	tags := uintptr(unsafe.Pointer(&kindTags))
	for _, v := range r.Fields() {
		if i := uintptr(v.p) - tags; i < uintptr(len(kindTags)) {
			if Kind(i) == KindVector {
				n += 8 // the nil vector's header
			}
			continue
		}
		switch Kind(v.n >> kindShift) { // null: p is nil and n is 0
		case KindString:
			n += v.len()
		case KindVector:
			n += 8 + 8*v.len()
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
