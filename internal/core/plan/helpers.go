package plan

import (
	"rheem/internal/data"
)

// This file provides the small library of canned UDFs that applications
// compose constantly: collection sources, field-projection keys, and
// arithmetic reducers. They are ordinary UDF values — nothing here is
// special-cased by the optimizer.

// Collection returns a SourceFunc serving a fixed record slice. The
// slice is not copied; callers must not mutate it after plan execution
// begins.
func Collection(recs []data.Record) SourceFunc {
	return func() ([]data.Record, error) { return recs, nil }
}

// FieldKey returns a KeyFunc projecting field i.
func FieldKey(i int) KeyFunc {
	return func(r data.Record) (data.Value, error) { return r.Field(i), nil }
}

// ConstKey returns a KeyFunc mapping every record to the same key,
// which turns per-key operators into global ones.
func ConstKey() KeyFunc {
	return func(data.Record) (data.Value, error) { return data.Int(0), nil }
}

// RecordKey returns a KeyFunc hashing the whole record into an Int key;
// it is how Distinct and record-level grouping are expressed over the
// Value-keyed operator pool.
func RecordKey() KeyFunc {
	return func(r data.Record) (data.Value, error) {
		return data.Int(int64(data.HashRecord(r, 0))), nil
	}
}

// SumField returns a ReduceFunc adding field i of two records,
// keeping the remaining fields of the first.
func SumField(i int) ReduceFunc {
	return func(a, b data.Record) (data.Record, error) {
		switch a.Field(i).Kind() {
		case data.KindInt:
			return a.WithField(i, data.Int(a.Field(i).Int()+b.Field(i).Int())), nil
		default:
			return a.WithField(i, data.Float(a.Field(i).Float()+b.Field(i).Float())), nil
		}
	}
}

// Identity returns a MapFunc passing records through unchanged, useful
// as a placeholder in enhancer positions.
func Identity() MapFunc {
	return func(r data.Record) (data.Record, error) { return r, nil }
}

// NewSynthetic creates a free-standing operator of kind holding fn, its
// UDF (nil for a kind without one), for enhancer physical operators and
// a test's reference twins. It belongs to no logical plan, so its ID is -1.
func NewSynthetic(kind OpKind, name string, fn any) *Operator {
	return &Operator{id: -1, kind: kind, name: name, fn: fn}
}

// WithUDF is a copy of the operator, of no plan, holding fn as its UDF
// beside its column form: tests count a derived UDF's calls with it.
func (o *Operator) WithUDF(fn any) *Operator { c := *o; c.fn = fn; return &c }
