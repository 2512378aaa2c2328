package data

import (
	"bytes"
	"math"
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

// FuzzCodecRoundTrip drives arbitrary bytes through the binary codec.
// The decoder must never panic or allocate unboundedly, and whatever
// it accepts must re-encode to a fixed point: decode(encode(recs)) ==
// recs, compared through the canonical encoding so NaN floats and
// non-minimal varints in the original input don't produce spurious
// mismatches.
func FuzzCodecRoundTrip(f *testing.F) {
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
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
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
