package data

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"math"
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

// TestBinaryGoldenBytes pins the binary format field by field: one
// single-field record per case, its exact bytes in hex (record count,
// arity, kind byte, payload). service.Digest hashes these bytes, so a
// change here changes every job's digest.
func TestBinaryGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		hex  string
	}{
		{"null", Null(), "010100"},
		{"false", Bool(false), "01010100"},
		{"true", Bool(true), "01010102"},
		{"negative int", Int(-300), "010102d704"},
		{"float", Float(1.5), "01010380808080808080fc3f"},
		{"negative zero", Float(math.Copysign(0, -1)), "01010380808080808080808001"},
		{"NaN", Float(math.NaN()), "01010381808080808080fc7f"},
		{"empty string", Str(""), "01010400"},
		{"multi-byte string", Str("né世"), "010104066ec3a9e4b896"},
		{"vector", Vec([]float64{1, -2.5}), "0101050280808080808080f83f8080808080808082c001"},
		{"nil vector", Vec(nil), "01010500"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		n, err := WriteBinary(&buf, []Record{NewRecord(c.v)})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := hex.EncodeToString(buf.Bytes())
		if got != c.hex {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.hex)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: reported %d bytes, wrote %d", c.name, n, buf.Len())
		}
	}
}

// TestWriteBinaryAllocationsIndependentOfRows: WriteBinary writes
// straight into the bufio.Writer it is handed, so a batch of 5 000 rows
// costs the objects one of 5 rows does. An object per record, field or
// string — a kind byte boxed into a slice, a string copied for a writer
// without WriteString — is thousands of objects on the large batch.
// Sampled heap profiles barely show such one-byte objects; this count
// does.
func TestWriteBinaryAllocationsIndependentOfRows(t *testing.T) {
	rows := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = NewRecord(Null(), Bool(i%2 == 0), Int(int64(-i)), Float(float64(i)/3),
				Str("row"), Vec([]float64{float64(i), 1}))
		}
		return recs
	}
	bw := bufio.NewWriter(io.Discard)
	allocs := func(recs []Record) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := WriteBinary(bw, recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(rows(5)), allocs(rows(5000))
	t.Logf("%.0f objects for 5 rows, %.0f for 5 000", small, large)
	if large > small+1 {
		t.Errorf("WriteBinary made %.0f objects for 5 000 rows and %.0f for 5", large, small)
	}
}
