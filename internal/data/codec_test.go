package data

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleBatch() (*Schema, []Record) {
	s := MustSchema(
		Field{"id", KindInt},
		Field{"name", KindString},
		Field{"score", KindFloat},
		Field{"ok", KindBool},
		Field{"vec", KindVector},
	)
	recs := []Record{
		NewRecord(Int(1), Str("alice"), Float(0.5), Bool(true), Vec([]float64{1, 2})),
		NewRecord(Int(2), Str("bob,comma"), Float(-1), Bool(false), Vec([]float64{3})),
		NewRecord(Int(3), Null(), Null(), Null(), Null()),
	}
	return s, recs
}

func TestCSVRoundTrip(t *testing.T) {
	s, recs := sampleBatch()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s, recs); err != nil {
		t.Fatal(err)
	}
	gotSchema, gotRecs, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotSchema.Spec() != s.Spec() {
		t.Errorf("schema: %s vs %s", gotSchema, s)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("record count %d vs %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		if !EqualRecords(gotRecs[i], recs[i]) {
			t.Errorf("record %d: %s vs %s", i, gotRecs[i], recs[i])
		}
	}
}

func TestWriteCSVValidates(t *testing.T) {
	s, _ := sampleBatch()
	var buf bytes.Buffer
	err := WriteCSV(&buf, s, []Record{NewRecord(Int(1))})
	if err == nil {
		t.Error("arity-mismatched record written without error")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"id\n1\n",            // header cell without type
		"id:frobnicate\n1\n", // unknown kind
		"id:int\nnotanint\n", // unparseable cell
	}
	for _, c := range cases {
		if _, _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) accepted", c)
		}
	}
}

func TestCSVHeaderNameWithColon(t *testing.T) {
	s := MustSchema(Field{"a:b", KindInt})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s, []Record{NewRecord(Int(7))}); err != nil {
		t.Fatal(err)
	}
	got, recs, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Field(0).Name != "a:b" || recs[0].Field(0).Int() != 7 {
		t.Errorf("colon field name mangled: %s", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	_, recs := sampleBatch()
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count %d vs %d", len(got), len(recs))
	}
	for i := range recs {
		if !EqualRecords(got[i], recs[i]) {
			t.Errorf("record %d: %s vs %s", i, got[i], recs[i])
		}
	}
}

func TestBinaryEmptyBatch(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records from empty batch", len(got))
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	_, recs := sampleBatch()
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream decoded without error")
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(gens []recordGen) bool {
		recs := make([]Record, len(gens))
		for i, g := range gens {
			recs[i] = g.R
		}
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, recs); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if !binaryEqualRecords(got[i], recs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// binaryEqualRecords is EqualRecords except NaN floats are treated as
// equal to themselves (the codec preserves bit patterns, but Equal uses
// == which NaN fails).
func binaryEqualRecords(a, b Record) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.Field(i), b.Field(i)
		if av.Kind() != bv.Kind() {
			return false
		}
		if av.Kind() == KindFloat {
			if av.String() != bv.String() {
				return false
			}
			continue
		}
		if !Equal(av, bv) {
			return false
		}
	}
	return true
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
