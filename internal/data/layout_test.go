package data

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// Compile-time guard: the conversion only compiles while Value's fields
// are exactly these, the zero-size func array that keeps the type from
// being comparable included.
var _ = struct {
	_    [0]func()
	kind Kind
	n    uint64
	p    unsafe.Pointer
}(Value{})

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || !Equal(zero, Null()) || zero.String() != "" {
		t.Errorf("zero Value is %s %q, want null", zero.Kind(), zero)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == would compare string and vector pointers, not contents")
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
