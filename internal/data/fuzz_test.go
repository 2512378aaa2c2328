package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// encodeBatch is the fuzz targets' canonical encoder.
func encodeBatch(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, recs)
	if err != nil {
		t.Fatalf("WriteBinary on decoded records: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteBinary reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// sameValues fails unless got holds want's values: record by record,
// each field of the same kind and Equal.
func sameValues(tb testing.TB, want, got []Record) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("round trip changed record count: %d -> %d", len(want), len(got))
	}
	for i, r := range want {
		if got[i].Len() != r.Len() {
			tb.Fatalf("record %d: round trip changed arity: %d -> %d", i, r.Len(), got[i].Len())
		}
		for j, v := range r.Fields() {
			if w := got[i].Field(j); w.Kind() != v.Kind() || !Equal(v, w) {
				tb.Fatalf("record %d field %d: %s %s round-tripped to %s %s", i, j, v.Kind(), v, w.Kind(), w)
			}
		}
	}
}

// writtenKinds walks a stream ReadBinary accepted and returns the kind
// byte of every field in it, in order: what each decoded value must
// report, read off the wire rather than off a Value.
func writtenKinds(t *testing.T, raw []byte) []Kind {
	t.Helper()
	uvarint := func() uint64 {
		u, n := binary.Uvarint(raw)
		if n <= 0 {
			t.Fatalf("ReadBinary accepted a stream whose varint at %x does not parse", raw)
		}
		raw = raw[n:]
		return u
	}
	var kinds []Kind
	for count := uvarint(); count > 0; count-- {
		for arity := uvarint(); arity > 0; arity-- {
			k := Kind(raw[0])
			raw = raw[1:]
			kinds = append(kinds, k)
			switch k {
			case KindBool, KindInt, KindFloat:
				uvarint()
			case KindString:
				raw = raw[uvarint():]
			case KindVector:
				for n := uvarint(); n > 0; n-- {
					uvarint()
				}
			}
		}
	}
	return kinds
}

// FuzzCodecRoundTrip drives arbitrary bytes through the binary codec.
// The decoder must never panic or allocate unboundedly, every value it
// decodes must report the kind byte it was read from, and whatever it
// accepts must re-encode to a fixed point: decode(encode(recs)) == recs,
// value by value under Equal and byte for byte through the canonical
// encoding, so NaN floats and non-minimal varints in the original input
// don't produce spurious mismatches.
func FuzzCodecRoundTrip(f *testing.F) {
	long := strings.Repeat("substring", 4)
	seedBatches := [][]Record{
		{},
		{NewRecord(Int(1), Str("a"))},
		{NewRecord(Null(), Bool(true), Bool(false))},
		{NewRecord(Int(-1<<62), Int(math.MaxInt64), Float(0))},
		{NewRecord(Float(math.NaN()), Float(math.Inf(1)), Float(-0.0))},
		{NewRecord(Str("")), NewRecord(Str("héllo\x00world"))},
		{NewRecord(Vec(nil)), NewRecord(Vec([]float64{1.5, math.Inf(-1)}))},
		{NewRecord(), NewRecord(Int(7))},
		// Zero-length payloads: a string with no bytes behind its pointer,
		// a vector that is empty but not nil.
		{NewRecord(Str(""), Str(""))},
		{NewRecord(Vec([]float64{}), Vec(nil))},
		// An empty substring of a longer string, and an empty vector with
		// capacity behind it: neither may read back as another kind.
		{NewRecord(Str(long[9:9]), Vec(make([]float64, 0, 4)))},
		// Columnar-conversion decision space: these shapes steer which
		// representation batch.FromRecords picks (validity bitmaps,
		// all-null and mixed-kind ColAny columns, the ragged row
		// fallback), so the corpus reaches every branch of the
		// Collection → batch → Collection round trip.
		{NewRecord(Null(), Int(1)), NewRecord(Null(), Int(2))},
		{NewRecord(Int(1), Null()), NewRecord(Null(), Str("x")), NewRecord(Float(3), Null())},
		{NewRecord(Int(1)), NewRecord(Str("two")), NewRecord(Float(3)), NewRecord(Bool(true))},
		{NewRecord(Int(1)), NewRecord(Int(2), Str("ragged"))},
		{NewRecord(Null()), NewRecord(Null())},
		{NewRecord(Bool(true), Float(math.NaN())), NewRecord(Null(), Float(-0.0))},
	}
	for _, batch := range seedBatches {
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, batch); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		again, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			f.Fatal(err)
		}
		sameValues(f, batch, again)
	}
	// Corrupt headers: huge declared counts with no payload behind them
	// must fail fast, not allocate gigabytes.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x01, 0x01, byte(KindString), 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x01, 0x01, byte(KindVector), 0xff, 0xff, 0xff, 0x7f, 0x00})

	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return // rejecting garbage is fine; crashing is not
		}
		enc := encodeBatch(t, recs)
		again, err := ReadBinary(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		kinds := writtenKinds(t, raw)
		for _, r := range recs {
			for _, v := range r.Fields() {
				if v.Kind() != kinds[0] {
					t.Fatalf("decoded a %s %s from kind byte %d", v.Kind(), v, kinds[0])
				}
				kinds = kinds[1:]
			}
		}
		sameValues(t, recs, again)
		if enc2 := encodeBatch(t, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

// FuzzCompareTotalOrder draws values from whatever the codec's decoder
// accepts and holds Compare to the order's properties over every triple
// of them (checkOrder) — NaN payloads, ints no float64 holds and ragged
// vectors included, which the seeds start from.
func FuzzCompareTotalOrder(f *testing.F) {
	pool := orderPool()
	for i := 0; i < len(pool); i += 6 {
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, []Record{NewRecord(pool[i:min(i+6, len(pool))]...)}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var vals []Value
		for _, r := range recs {
			vals = append(vals, r.Fields()...)
		}
		checkOrder(t, vals[:min(len(vals), 16)]) // cubic in the values: keep an input cheap
	})
}
