// Package data defines RHEEM's data-quantum model.
//
// A data quantum is "the smallest unit of data elements from the input
// datasets" (paper §3.1) — a tuple in a dataset or a row in a matrix.
// This package provides the dynamic value system those quanta are built
// from: a tagged-union Value, a Record (one quantum), and a Schema that
// names and types a record's fields. The representation is deliberately
// platform-neutral: every processing platform (javaengine, sparksim,
// relengine) and every storage engine exchanges data in this model, so
// that the core layer can move data quanta between platforms without
// knowing their internals.
package data

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind uint8

// The supported value kinds. Vector is a dense float64 vector used by
// the ML application (a "row in a matrix" data quantum).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindVector
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindVector:
		return "vector"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name (as produced by Kind.String) back to a
// Kind. It is used by schema files and the CSV header codec.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "null":
		return KindNull, nil
	case "bool":
		return KindBool, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	case "vector":
		return KindVector, nil
	default:
		return KindNull, fmt.Errorf("data: unknown kind %q", s)
	}
}

// Value is a dynamically typed scalar or vector. It is a tagged union
// rather than an interface so that records of scalars allocate nothing
// beyond their field slice; this matters because logical operators are
// applied per data quantum (§3.1) and run in tight loops, so what one
// quantum costs multiplies through every operator, conversion and
// shuffle of the row path.
//
// Layout: two words, 16 bytes on 64-bit targets, the kind encoded in p:
//   - Null: p is nil, so the zero Value is Null.
//   - Bool, Int and Float: p is the kind's tag, the address of its entry
//     in kindTags; n holds the bool (0 or 1), the int or the float's
//     IEEE bits.
//   - A non-empty string and a non-nil vector: p points at the string's
//     bytes or the vector's first element, and n is the length with the
//     kind in its top byte.
//   - The empty string and the nil vector: p is the kind's tag and n is
//     0, so an empty substring keeps nothing of its parent alive.
//
// Constructors box nothing and copy nothing: Str and Vec keep the
// caller's backing array alive through p.
//
// Rules that follow from the layout:
//   - Compare values with Equal (or Compare), never with == or
//     reflect.DeepEqual. The zero-size func field keeps == from
//     compiling; DeepEqual would compare string and vector pointers,
//     not contents. The same holds for Record, which holds a pointer
//     to its fields.
//   - Vec() returns a slice with cap == len, whatever capacity the slice
//     given to the constructor had: the capacity is not stored. A
//     non-nil empty vector keeps its data pointer, so Vec(nil).Vec() is
//     nil and Vec([]float64{}).Vec() is empty and non-nil.
type Value struct {
	_ [0]func() // not comparable
	p unsafe.Pointer
	n uint64
}

// kindTags gives every kind an address of its own: a value whose p is
// &kindTags[k] is of kind k (kindTags[k] == k, so the offset into the
// array is the kind). Every tag is a real byte; no pointer is ever built
// from an integer.
var kindTags = [...]Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindVector}

// tag returns kind k's tag.
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&kindTags[k]) }

const (
	kindShift = 56               // a string's or vector's kind sits in n's top byte
	lenMask   = 1<<kindShift - 1 // and its length below it
)

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{p: tag(KindBool), n: n}
}

// Int returns an integer value.
func Int(v int64) Value { return Value{p: tag(KindInt), n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{p: tag(KindFloat), n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value {
	if len(v) == 0 {
		return Value{p: tag(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v)) | uint64(KindString)<<kindShift}
}

// Vec returns a vector value. The slice is NOT copied; callers that
// mutate the argument afterwards must copy it first.
func Vec(v []float64) Value {
	if v == nil {
		return Value{p: tag(KindVector)}
	}
	return Value{p: unsafe.Pointer(unsafe.SliceData(v)), n: uint64(len(v)) | uint64(KindVector)<<kindShift}
}

// The payload readers below do not check the kind; every caller has
// switched on it. Nothing else dereferences p.

func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) len() int       { return int(v.n & lenMask) } // a tag's n is 0
func (v Value) str() string    { return unsafe.String((*byte)(v.p), v.len()) }

func (v Value) vec() []float64 {
	if v.p == tag(KindVector) {
		return nil // the tag is a byte, not a float64 to point a slice at
	}
	return unsafe.Slice((*float64)(v.p), v.len())
}

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind {
	if v.p == nil {
		return KindNull
	}
	if i := uintptr(v.p) - uintptr(unsafe.Pointer(&kindTags)); i < uintptr(len(kindTags)) {
		return Kind(i)
	}
	return Kind(v.n >> kindShift)
}

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.p == nil }

// Bool returns the boolean payload. It panics if the kind is not Bool;
// use Kind first when the type is not statically known.
func (v Value) Bool() bool {
	if v.p != tag(KindBool) {
		v.mismatch(KindBool)
	}
	return v.n != 0
}

// Int returns the integer payload, panicking on a kind mismatch.
func (v Value) Int() int64 {
	if v.p != tag(KindInt) {
		v.mismatch(KindInt)
	}
	return v.int()
}

// Float returns the float payload. For convenience in numeric UDFs it
// also accepts an Int value (widened); any other kind panics.
func (v Value) Float() float64 {
	switch v.p {
	case tag(KindFloat):
		return v.float()
	case tag(KindInt):
		return float64(v.int())
	}
	panic(fmt.Sprintf("data: Float() on %s value", v.Kind()))
}

// Str returns the string payload, panicking on a kind mismatch.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.str()
}

// Vec returns the vector payload, panicking on a kind mismatch. The
// returned slice aliases the value's storage and has cap == len.
func (v Value) Vec() []float64 {
	v.mustBe(KindVector)
	return v.vec()
}

func (v Value) mustBe(k Kind) {
	if v.Kind() != k {
		v.mismatch(k)
	}
}

func (v Value) mismatch(k Kind) {
	panic(fmt.Sprintf("data: %s() on %s value", k, v.Kind()))
}

// String renders the value for debugging and CSV output. Null renders
// as the empty string, vectors as semicolon-separated floats.
func (v Value) String() string {
	switch k := v.Kind(); k {
	case KindNull:
		return ""
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindVector:
		var sb strings.Builder
		for i, f := range v.vec() {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		}
		return sb.String()
	default:
		return fmt.Sprintf("<%s>", k)
	}
}

// ParseValue parses the textual form produced by Value.String back into
// a value of the requested kind. The empty string parses to Null for
// every kind, matching the CSV convention for missing fields.
func ParseValue(s string, k Kind) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch k {
	case KindNull:
		return Null(), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null(), fmt.Errorf("data: parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("data: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("data: parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return Str(s), nil
	case KindVector:
		parts := strings.Split(s, ";")
		vec := make([]float64, len(parts))
		for i, p := range parts {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return Null(), fmt.Errorf("data: parse vector component %q: %w", p, err)
			}
			vec[i] = f
		}
		return Vec(vec), nil
	default:
		return Null(), fmt.Errorf("data: parse into unknown kind %d", k)
	}
}

// Compare is the one order of the system: every sort, sort-based group
// and join, predicate and MIN/MAX goes through it (or, in javaengine's
// typed loops, through its unboxed form). It is total and
// exact. Null sorts first; values of different kinds order by kind,
// except that Int and Float order numerically against each other —
// exactly, the int is not widened to a float64 that cannot hold it —
// and by kind only when numerically equal. Ints order as ints, floats
// as cmp.Compare orders them (every NaN equals every NaN and is below
// every number, -0 equals +0), strings bytewise, vectors element by
// element under the float order and then by length.
//
// The invariant the rest of the tree leans on: for two values of one
// kind, Compare(a, b) == 0 ⇔ Equal(a, b) ⇒ Hash(a) == Hash(b) (and
// across kinds Compare is never zero). So hashing and sorting form the
// same groups, whichever the optimizer picks.
func Compare(a, b Value) int {
	ka, kb := a.Kind(), b.Kind()
	switch {
	case ka == KindInt && kb == KindFloat:
		return compareIntFloat(a.int(), b.float())
	case ka == KindFloat && kb == KindInt:
		return -compareIntFloat(b.int(), a.float())
	case ka != kb:
		return cmp.Compare(ka, kb)
	}
	switch ka {
	case KindBool:
		return int(a.n) - int(b.n)
	case KindInt:
		return cmp.Compare(a.int(), b.int())
	case KindFloat:
		return cmp.Compare(a.float(), b.float())
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindVector:
		return slices.Compare(a.vec(), b.vec())
	default:
		return 0
	}
}

// compareIntFloat orders the int i against the float f: a NaN is below
// and a float outside int64's range beyond every int; inside it f's
// integer part is an int64 exactly, and its fraction breaks the tie. A
// numerically equal pair orders by kind, the int first.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f < -(1<<63):
		return 1
	case f >= 1<<63:
		return -1
	}
	whole := math.Trunc(f)
	if c := cmp.Compare(i, int64(whole)); c != 0 {
		return c
	}
	if f < whole {
		return 1
	}
	return -1
}

// Equal reports whether two values are of one kind and compare equal
// under Compare: an Int never equals a Float, every NaN equals every
// NaN and -0 equals +0 — what Hash agrees with, so hash grouping is
// sound.
func Equal(a, b Value) bool {
	k := a.Kind()
	if k != b.Kind() {
		return false
	}
	switch k {
	case KindNull:
		return true
	case KindBool, KindInt:
		return a.n == b.n
	case KindFloat:
		return cmp.Compare(a.float(), b.float()) == 0
	case KindString:
		return a.str() == b.str()
	case KindVector:
		return slices.Compare(a.vec(), b.vec()) == 0
	default:
		return false
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of the value, seeded so that
// partitioners can derive independent hash families. Equal values (per
// Equal) hash identically, which for floats means -0 hashes as +0 and
// every NaN as one NaN.
func Hash(v Value, seed uint64) uint64 {
	k := v.Kind()
	h := hashByte(fnvOffset^seed, byte(k))
	switch k {
	case KindBool, KindInt:
		h = hashUint64(h, v.n)
	case KindFloat:
		h = hashFloat(h, v.float())
	case KindString:
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = hashByte(h, s[i])
		}
	case KindVector:
		for _, f := range v.vec() {
			h = hashFloat(h, f)
		}
	}
	return h
}

func hashFloat(h uint64, f float64) uint64 {
	switch {
	case f == 0:
		f = 0 // Equal(-0, +0) holds, so both hash as +0
	case f != f:
		f = math.NaN() // and every NaN payload as one
	}
	return hashUint64(h, math.Float64bits(f))
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v))
		v >>= 8
	}
	return h
}
