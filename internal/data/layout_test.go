package data

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// Compile-time guard: the conversion only compiles while Value's fields
// are exactly these, the zero-size func array that keeps the type from
// being comparable included.
var _ = struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}(Value{})

// And Record's: the first field's address and the field count.
var _ = struct {
	_ [0]func()
	p *Value
	n int
}(Record{})

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || !Equal(zero, Null()) || zero.String() != "" {
		t.Errorf("zero Value is %s %q, want null", zero.Kind(), zero)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == would compare string and vector pointers, not contents")
	}
}

func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want 16", got)
	}
	if reflect.TypeOf(Record{}).Comparable() {
		t.Error("Record is comparable: == would compare field pointers, not contents")
	}
	var zero Record
	if zero.Len() != 0 || zero.Fields() != nil || zero.String() != "()" || !EqualRecords(zero, NewRecord()) {
		t.Errorf("zero Record has %d fields %#v, want none and nil", zero.Len(), zero.Fields())
	}
	// Fields aliases the slice given to NewRecord and forgets its capacity.
	vals := make([]Value, 3, 8)
	vals[1] = Int(7)
	fields := NewRecord(vals...).Fields()
	if len(fields) != 3 || cap(fields) != 3 || &fields[0] != &vals[0] || fields[1].Int() != 7 {
		t.Errorf("Fields() has len %d cap %d, want 3 and 3 over the constructor's slice", len(fields), cap(fields))
	}
}

// TestKindEncoding holds every kind's encoding — a nil pointer, a tag, or
// a payload pointer with the kind in n's top byte — to what a value of
// that kind must answer, at zero-length, short and extreme payloads: its
// kind, and equal, order-equal and hash-equal to the same payload built
// afresh, and to no value of another kind.
func TestKindEncoding(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB
	bigVec := make([]float64, 1<<16)
	bigVec[len(bigVec)-1] = math.NaN()
	cases := []struct {
		v, fresh Value
		kind     Kind
	}{
		{Null(), Value{}, KindNull},
		{Bool(false), Bool(false), KindBool},
		{Bool(true), Bool(true), KindBool},
		{Int(0), Int(0), KindInt},
		{Int(-1), Int(-1), KindInt}, // every bit of n set, the top byte too
		{Int(math.MinInt64), Int(math.MinInt64), KindInt},
		{Int(math.MaxInt64), Int(math.MaxInt64), KindInt},
		{Int(int64(KindString) << 56), Int(int64(KindString) << 56), KindInt}, // a string's top byte
		{Float(0), Float(math.Copysign(0, -1)), KindFloat},
		{Float(math.Inf(-1)), Float(math.Inf(-1)), KindFloat},
		{Float(math.Float64frombits(^uint64(0))), Float(math.NaN()), KindFloat},
		{Float(math.SmallestNonzeroFloat64), Float(math.SmallestNonzeroFloat64), KindFloat},
		{Str(""), Str(string([]byte{})), KindString},
		{Str(big[7:7]), Str(""), KindString}, // an empty substring
		{Str("x"), Str(string([]byte("x"))), KindString},
		{Str(big[5:9]), Str("5678"), KindString},
		{Str(big), Str(strings.Clone(big)), KindString},
		{Vec(nil), Vec([]float64{}), KindVector},
		{Vec([]float64{}), Vec(nil), KindVector},
		{Vec(make([]float64, 0, 4)), Vec(nil), KindVector},
		{Vec([]float64{math.Inf(1)}), Vec([]float64{math.Inf(1)}), KindVector},
		{Vec(bigVec), Vec(slices.Clone(bigVec)), KindVector},
	}
	for i, c := range cases {
		if c.v.Kind() != c.kind || c.fresh.Kind() != c.kind || c.v.IsNull() != (c.kind == KindNull) {
			t.Errorf("case %d: Kind() = %s (afresh %s), IsNull() = %v; want %s", i, c.v.Kind(), c.fresh.Kind(), c.v.IsNull(), c.kind)
		}
		if !Equal(c.v, c.fresh) || !Equal(c.fresh, c.v) || Compare(c.v, c.fresh) != 0 {
			t.Errorf("case %d: %s %.20s is not Equal and Compare-equal to its payload afresh", i, c.kind, c.v)
		}
		for _, seed := range []uint64{0, 7} {
			if Hash(c.v, seed) != Hash(c.fresh, seed) {
				t.Errorf("case %d: %s %.20s hashes apart from its payload afresh at seed %d", i, c.kind, c.v, seed)
			}
		}
		for _, o := range cases {
			if o.kind != c.kind && (Equal(c.v, o.v) || Compare(c.v, o.v) == 0) {
				t.Errorf("case %d: %s %.20s equals %s %.20s", i, c.kind, c.v, o.kind, o.v)
			}
		}
	}

	// The zero-length payloads read back as what they were made from.
	if Str(big[7:7]).Str() != "" || Vec(nil).Vec() != nil {
		t.Error("an empty string or nil vector reads back non-empty")
	}
	if got := Vec(make([]float64, 0, 4)).Vec(); got == nil || len(got) != 0 || cap(got) != 0 {
		t.Errorf("a non-nil empty vector reads back as %#v with cap %d, want empty and non-nil", got, cap(got))
	}
}

func TestStringPayloadRoundTrip(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB
	for _, s := range []string{"", "x", "héllo\x00world", big} {
		v := Str(s)
		if got := v.Str(); got != s || len(got) != len(s) {
			t.Errorf("Str(%d bytes).Str() returned %d bytes", len(s), len(got))
		}
		if v.String() != s {
			t.Errorf("Str(%d bytes).String() differs", len(s))
		}
		if !Equal(v, Str(string([]byte(s)))) || Compare(v, Str(string([]byte(s)))) != 0 {
			t.Errorf("Str(%d bytes) is not Equal to a copy of itself", len(s))
		}
		if want := 16 + 16 + len(s); NewRecord(v).Bytes() != want {
			t.Errorf("Bytes() = %d, want %d", NewRecord(v).Bytes(), want)
		}
	}
	// A substring keeps its own length, not its parent's.
	if got := Str(big[5:9]).Str(); got != "5678" {
		t.Errorf("substring payload = %q", got)
	}
}

func TestVectorPayloadRoundTrip(t *testing.T) {
	if got := Vec(nil).Vec(); got != nil {
		t.Errorf("Vec(nil).Vec() = %v, want nil", got)
	}
	if got := Vec([]float64{}).Vec(); got == nil || len(got) != 0 {
		t.Errorf("Vec([]float64{}).Vec() = %#v, want empty and non-nil", got)
	}
	if !Equal(Vec(nil), Vec([]float64{})) || Compare(Vec(nil), Vec([]float64{})) != 0 ||
		Hash(Vec(nil), 3) != Hash(Vec([]float64{}), 3) {
		t.Error("nil and empty vectors must stay Equal, Compare-equal and hash-equal")
	}

	// Vec aliases its argument in both directions and forgets its capacity.
	backing := make([]float64, 3, 8)
	copy(backing, []float64{1, 2, 3})
	v := Vec(backing)
	backing[1] = 20
	got := v.Vec()
	if got[1] != 20 {
		t.Error("Vec copied its argument")
	}
	got[2] = 30
	if backing[2] != 30 {
		t.Error("Vec() does not alias the value's storage")
	}
	if len(got) != 3 || cap(got) != 3 {
		t.Errorf("Vec() has len %d cap %d, want 3 and 3", len(got), cap(got))
	}
	if want := 16 + 24 + 8*3; NewRecord(v).Bytes() != want {
		t.Errorf("Bytes() = %d, want %d", NewRecord(v).Bytes(), want)
	}
}

func TestScalarPayloadRoundTrip(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		if got := Int(i).Int(); got != i {
			t.Errorf("Int(%d).Int() = %d", i, got)
		}
		if got := Int(i).Float(); got != float64(i) {
			t.Errorf("Int(%d).Float() = %g", i, got)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := Float(f).Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%g).Float() = %g", f, got)
		}
	}
	if got := Float(math.NaN()).Float(); !math.IsNaN(got) {
		t.Errorf("Float(NaN).Float() = %g", got)
	}
	if Compare(Bool(false), Bool(true)) != -1 || Compare(Bool(true), Bool(false)) != 1 || Compare(Bool(true), Bool(true)) != 0 {
		t.Error("Compare on bools changed")
	}
}

// Every kind-mismatch panic keeps its message.
func TestAccessorPanicMessages(t *testing.T) {
	values := []Value{Null(), Bool(true), Int(1), Float(1), Str("s"), Vec([]float64{1})}
	accessors := []struct {
		name    string
		accepts func(Kind) bool
		call    func(Value)
	}{
		{"bool", func(k Kind) bool { return k == KindBool }, func(v Value) { v.Bool() }},
		{"int", func(k Kind) bool { return k == KindInt }, func(v Value) { v.Int() }},
		{"Float", func(k Kind) bool { return k == KindFloat || k == KindInt }, func(v Value) { v.Float() }},
		{"string", func(k Kind) bool { return k == KindString }, func(v Value) { v.Str() }},
		{"vector", func(k Kind) bool { return k == KindVector }, func(v Value) { v.Vec() }},
	}
	for _, a := range accessors {
		for _, v := range values {
			want := any(fmt.Sprintf("data: %s() on %s value", a.name, v.Kind()))
			if a.accepts(v.Kind()) {
				want = nil
			}
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s accessor on %s value: panic %v, want %v", a.name, v.Kind(), got, want)
					}
				}()
				a.call(v)
			}()
		}
	}
}

// Equal(+0, -0) holds, so the two must hash alike — as scalars, inside
// vectors and inside records.
func TestHashSignedZero(t *testing.T) {
	neg := math.Copysign(0, -1)
	pairs := [][2]Value{
		{Float(0), Float(neg)},
		{Vec([]float64{1, 0}), Vec([]float64{1, neg})},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("%s and %s are not Equal", p[0], p[1])
		}
		for _, seed := range []uint64{0, 7} {
			if Hash(p[0], seed) != Hash(p[1], seed) {
				t.Errorf("Hash(%s) != Hash(%s) at seed %d", p[0], p[1], seed)
			}
			if HashRecord(NewRecord(p[0]), seed) != HashRecord(NewRecord(p[1]), seed) {
				t.Errorf("HashRecord differs for %s and %s at seed %d", p[0], p[1], seed)
			}
		}
	}
	if Hash(Float(0), 0) == Hash(Int(0), 0) {
		t.Error("Float(0) and Int(0) are not Equal and should not collide by construction")
	}
}
