package data

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int",
		KindFloat: "float", KindString: "string", KindVector: "vector",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindVector} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("frob"); err == nil {
		t.Error("ParseKind(frob) succeeded, want error")
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if v := Bool(true); !v.Bool() || v.Kind() != KindBool {
		t.Error("Bool(true) broken")
	}
	if v := Bool(false); v.Bool() {
		t.Error("Bool(false) broken")
	}
	if v := Int(-42); v.Int() != -42 {
		t.Error("Int broken")
	}
	if v := Float(2.5); v.Float() != 2.5 {
		t.Error("Float broken")
	}
	if v := Int(3); v.Float() != 3.0 {
		t.Error("Int widening to Float broken")
	}
	if v := Str("hi"); v.Str() != "hi" {
		t.Error("Str broken")
	}
	if v := Vec([]float64{1, 2}); len(v.Vec()) != 2 {
		t.Error("Vec broken")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on string value did not panic")
		}
	}()
	_ = Str("x").Int()
}

func TestValueStringAndParseRoundTrip(t *testing.T) {
	cases := []Value{
		Null(), Bool(true), Bool(false), Int(0), Int(-7), Int(1 << 40),
		Float(3.14159), Float(-0.5), Float(1e300),
		Str("hello"), Str("with,comma"),
		Vec([]float64{1.5, -2, 0}),
	}
	for _, v := range cases {
		if v.Kind() == KindString && v.Str() == "" {
			continue // empty string is indistinguishable from null in text form
		}
		got, err := ParseValue(v.String(), v.Kind())
		if err != nil {
			t.Fatalf("ParseValue(%q, %s): %v", v.String(), v.Kind(), err)
		}
		if !Equal(got, v) {
			t.Errorf("round trip %s: got %s", v, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	bad := []struct {
		s string
		k Kind
	}{
		{"notabool", KindBool},
		{"1.5", KindInt},
		{"xyz", KindFloat},
		{"1;two;3", KindVector},
	}
	for _, c := range bad {
		if _, err := ParseValue(c.s, c.k); err == nil {
			t.Errorf("ParseValue(%q, %s) succeeded, want error", c.s, c.k)
		}
	}
	// Empty string is null for every kind.
	for _, k := range []Kind{KindBool, KindInt, KindFloat, KindString, KindVector} {
		v, err := ParseValue("", k)
		if err != nil || !v.IsNull() {
			t.Errorf("ParseValue(\"\", %s) = %v, %v; want null", k, v, err)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int // sign only
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Vec([]float64{1, 2}), Vec([]float64{1, 3}), -1},
		{Vec([]float64{1}), Vec([]float64{1, 0}), -1},
		{Str("z"), Vec(nil), -1}, // kind ordering: string < vector
	}
	for _, c := range cases {
		got := Compare(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("Compare(%s, %s) = %d, want sign %d", c.a, c.b, got, c.want)
		}
		if sign(Compare(c.b, c.a)) != -c.want {
			t.Errorf("Compare(%s, %s) not antisymmetric", c.b, c.a)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// randomValue generates arbitrary values for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63n(1<<32) - (1 << 31))
	case 3:
		return Float(r.NormFloat64() * 1e6)
	case 4:
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return Str(string(b))
	default:
		vec := make([]float64, r.Intn(5))
		for i := range vec {
			vec[i] = r.NormFloat64()
		}
		return Vec(vec)
	}
}

// valueGen adapts randomValue to testing/quick.
type valueGen struct{ V Value }

func (valueGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueGen{V: randomValue(r)})
}

func TestQuickCompareTotalOrder(t *testing.T) {
	// Antisymmetry and equality-consistency of Compare.
	f := func(a, b valueGen) bool {
		ab, ba := Compare(a.V, b.V), Compare(b.V, a.V)
		if sign(ab) != -sign(ba) {
			return false
		}
		if Equal(a.V, b.V) && ab != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitive(t *testing.T) {
	f := func(a, b, c valueGen) bool {
		x, y, z := a.V, b.V, c.V
		// Sort the triple by Compare, then verify pairwise consistency.
		if Compare(x, y) > 0 {
			x, y = y, x
		}
		if Compare(y, z) > 0 {
			y, z = z, y
		}
		if Compare(x, y) > 0 {
			x, y = y, x
		}
		return Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickHashEqualConsistent(t *testing.T) {
	f := func(a valueGen, seed uint64) bool {
		b := a.V // copies the value
		return Hash(a.V, seed) == Hash(b, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashSeedIndependence(t *testing.T) {
	v := Str("rheem")
	if Hash(v, 1) == Hash(v, 2) {
		t.Error("different seeds produced identical hashes (suspicious)")
	}
}

func TestHashDistinguishesKinds(t *testing.T) {
	if Hash(Int(1), 0) == Hash(Bool(true), 0) {
		t.Error("Int(1) and Bool(true) hash identically")
	}
	if Hash(Int(1), 0) == Hash(Float(1), 0) {
		t.Error("Int(1) and Float(1) hash identically")
	}
}

// TestEqualNaN: every NaN is one key — equal to itself and to a NaN of
// another payload, hashed alike — so hash grouping puts NaNs in the one
// group sort grouping does.
func TestEqualNaN(t *testing.T) {
	nan, other := Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000abc))
	if !math.IsNaN(other.Float()) {
		t.Fatal("the second payload is no NaN")
	}
	if !Equal(nan, nan) || !Equal(nan, other) || Compare(nan, other) != 0 {
		t.Error("NaN values do not equal each other")
	}
	if Hash(nan, 0) != Hash(other, 0) || Hash(nan, 7) != Hash(other, 7) {
		t.Error("Equal NaN values hash differently")
	}
	if Equal(nan, Float(0)) || Compare(nan, Float(math.Inf(-1))) >= 0 || Compare(Int(math.MinInt64), nan) <= 0 {
		t.Error("NaN is not below every number")
	}
}

// orderPool is a fixed pool of values around every edge of the order:
// each kind, ints where float64 runs out of integers, floats at the
// int64 range's ends and half a step off an int, signed zeros,
// infinities, two NaN payloads, and vectors holding them.
func orderPool() []Value {
	const p53 = int64(1) << 53
	nan2 := math.Float64frombits(0x7ff8000000000abc)
	negZero := math.Copysign(0, -1)
	return []Value{
		Null(), Bool(false), Bool(true),
		Int(0), Int(1), Int(-1), Int(5), Int(p53), Int(p53 + 1), Int(p53 + 2), Int(-p53), Int(-p53 - 1),
		Int(math.MinInt64), Int(math.MinInt64 + 1), Int(math.MaxInt64), Int(math.MaxInt64 - 1),
		Float(0), Float(negZero), Float(1), Float(5), Float(4.5), Float(5.5), Float(-0.5), Float(-1.5),
		Float(float64(p53)), Float(float64(p53) + 2), Float(-float64(p53)),
		Float(1 << 63), Float(-(1 << 63)), Float(math.Nextafter(1<<63, 0)), Float(math.Nextafter(-(1 << 63), 0)),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(nan2),
		Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
		Str(""), Str("a"), Str("ab"), Str("b"),
		Vec(nil), Vec([]float64{}), Vec([]float64{1}), Vec([]float64{1, 0}), Vec([]float64{1, negZero}),
		Vec([]float64{math.NaN()}), Vec([]float64{nan2}), Vec([]float64{math.NaN(), 1}), Vec([]float64{1, math.NaN()}),
		Vec([]float64{math.Inf(-1)}), Vec([]float64{2}),
	}
}

// checkOrder holds Compare to what data.Compare's comment promises over
// every pair and triple of vals: antisymmetric and transitive (a total
// preorder), zero exactly where Equal holds, Equal values hashing alike,
// and an int against a float standing as the exact numbers do.
func checkOrder(t *testing.T, vals []Value) {
	t.Helper()
	for _, a := range vals {
		for _, b := range vals {
			ab := Compare(a, b)
			if sign(ab) != -sign(Compare(b, a)) {
				t.Errorf("Compare(%s %s, %s %s) = %d but the converse is %d", a.Kind(), a, b.Kind(), b, ab, Compare(b, a))
			}
			if (ab == 0) != Equal(a, b) {
				t.Errorf("Compare(%s %s, %s %s) = %d but Equal is %v", a.Kind(), a, b.Kind(), b, ab, Equal(a, b))
			}
			if Equal(a, b) && (Hash(a, 0) != Hash(b, 0) || Hash(a, 99) != Hash(b, 99)) {
				t.Errorf("%s %s and %s %s are Equal and hash differently", a.Kind(), a, b.Kind(), b)
			}
			if a.Kind() == KindInt && b.Kind() == KindFloat && !math.IsNaN(b.Float()) {
				want := new(big.Float).SetInt64(a.Int()).Cmp(big.NewFloat(b.Float()))
				if want == 0 {
					want = -1 // numerically equal: by kind, the int first
				}
				if sign(ab) != want {
					t.Errorf("Compare(int %s, float %s) = %d, exact arithmetic says %d", a, b, ab, want)
				}
			}
			if ab > 0 {
				continue
			}
			for _, c := range vals {
				if Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("%s %s ≤ %s %s ≤ %s %s, but the first is above the last", a.Kind(), a, b.Kind(), b, c.Kind(), c)
				}
			}
		}
	}
}

// TestCompareIsATotalOrder is the order as a property over the pool.
func TestCompareIsATotalOrder(t *testing.T) {
	checkOrder(t, orderPool())
}
