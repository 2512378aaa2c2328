package data

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRecordBasics(t *testing.T) {
	r := NewRecord(Int(1), Str("a"), Float(2.5))
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Field(1).Str() != "a" {
		t.Error("Field(1) wrong")
	}
	if got := r.String(); got != "(1, a, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestRecordWithFieldDoesNotAlias(t *testing.T) {
	r := NewRecord(Int(1), Int(2))
	r2 := r.WithField(0, Int(9))
	if r.Field(0).Int() != 1 {
		t.Error("WithField mutated the original")
	}
	if r2.Field(0).Int() != 9 || r2.Field(1).Int() != 2 {
		t.Error("WithField result wrong")
	}
}

func TestRecordAppendProjectConcat(t *testing.T) {
	r := NewRecord(Int(1), Str("a"))
	ap := r.Append(Bool(true))
	if ap.Len() != 3 || !ap.Field(2).Bool() {
		t.Error("Append wrong")
	}
	if r.Len() != 2 {
		t.Error("Append mutated receiver")
	}
	pr := ap.Project(2, 0)
	if pr.Len() != 2 || !pr.Field(0).Bool() || pr.Field(1).Int() != 1 {
		t.Error("Project wrong")
	}
	cc := Concat(r, pr)
	if cc.Len() != 4 || cc.Field(3).Int() != 1 {
		t.Error("Concat wrong")
	}
}

func TestCompareRecords(t *testing.T) {
	a := NewRecord(Int(1), Str("a"))
	b := NewRecord(Int(1), Str("b"))
	c := NewRecord(Int(1))
	if CompareRecords(a, b) >= 0 {
		t.Error("a < b expected")
	}
	if CompareRecords(c, a) >= 0 {
		t.Error("prefix record should sort first")
	}
	if CompareRecords(a, a) != 0 {
		t.Error("self-compare nonzero")
	}
}

func TestEqualRecords(t *testing.T) {
	a := NewRecord(Int(1), Str("a"))
	if !EqualRecords(a, NewRecord(Int(1), Str("a"))) {
		t.Error("equal records not equal")
	}
	if EqualRecords(a, NewRecord(Int(1))) {
		t.Error("different arity records equal")
	}
	if EqualRecords(a, NewRecord(Int(1), Str("b"))) {
		t.Error("different records equal")
	}
}

func TestBytesEstimates(t *testing.T) {
	small := NewRecord(Int(1))
	big := NewRecord(Str("a long string value here"), Vec(make([]float64, 100)))
	if small.Bytes() >= big.Bytes() {
		t.Error("Bytes estimate not monotone in payload size")
	}
	if TotalBytes([]Record{small, big}) != int64(small.Bytes()+big.Bytes()) {
		t.Error("TotalBytes does not sum")
	}
}

// TestRecordBytesModel holds Bytes, which reads the layout, to the model
// it states: a 16-byte header, 16 a scalar or null, 16 plus the length a
// string, 24 plus 8 an element a vector, the nil one included.
func TestRecordBytesModel(t *testing.T) {
	model := func(r Record) int {
		n := 16
		for _, v := range r.Fields() {
			switch v.Kind() {
			case KindString:
				n += 16 + len(v.Str())
			case KindVector:
				n += 24 + 8*len(v.Vec())
			default:
				n += 16
			}
		}
		return n
	}
	for _, c := range []struct {
		name string
		v    Value
		want int
	}{
		{"null", Null(), 32},
		{"bool", Bool(true), 32},
		{"int", Int(-7), 32},
		{"float", Float(2.5), 32},
		{"empty string", Str(""), 32},
		{"string", Str("sensor"), 38},
		{"nil vector", Vec(nil), 40},
		{"empty vector", Vec([]float64{}), 40},
		{"vector", Vec([]float64{1, 2, 3}), 64},
	} {
		r := NewRecord(c.v)
		if got, m := r.Bytes(), model(r); got != c.want || m != c.want {
			t.Errorf("%s: Bytes = %d, the model says %d, want %d", c.name, got, m, c.want)
		}
	}
	wide := NewRecord(Null(), Bool(false), Int(1), Float(0), Str(""), Str("abc"), Vec(nil), Vec([]float64{}), Vec([]float64{4}))
	if got, want := wide.Bytes(), model(wide); got != want {
		t.Errorf("every kind in one record: Bytes = %d, the model says %d", got, want)
	}
	if got := (Record{}).Bytes(); got != 16 {
		t.Errorf("the empty record: Bytes = %d, want 16", got)
	}
}

func TestCloneRecords(t *testing.T) {
	recs := []Record{NewRecord(Int(1)), NewRecord(Int(2))}
	cl := CloneRecords(recs)
	cl[0] = NewRecord(Int(9))
	if recs[0].Field(0).Int() != 1 {
		t.Error("CloneRecords shares backing array")
	}
}

type recordGen struct{ R Record }

func (recordGen) Generate(r *rand.Rand, _ int) reflect.Value {
	vals := make([]Value, r.Intn(5))
	for i := range vals {
		vals[i] = randomValue(r)
	}
	return reflect.ValueOf(recordGen{R: NewRecord(vals...)})
}

func TestQuickRecordHashEqualConsistent(t *testing.T) {
	f := func(a recordGen, seed uint64) bool {
		cp := NewRecord(append([]Value(nil), a.R.Fields()...)...)
		if !EqualRecords(a.R, cp) {
			return false
		}
		return HashRecord(a.R, seed) == HashRecord(cp, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSortRecordsSorted(t *testing.T) {
	f := func(gens []recordGen) bool {
		recs := make([]Record, len(gens))
		for i, g := range gens {
			recs[i] = g.R
		}
		slices.SortStableFunc(recs, CompareRecords)
		return sort.SliceIsSorted(recs, func(i, j int) bool {
			return CompareRecords(recs[i], recs[j]) < 0
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
