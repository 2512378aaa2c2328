package service

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"rheem/internal/data"
)

// boxedResult is the result body as it used to be built: every cell boxed
// into its natural Go value and the whole handed to encoding/json. It is
// the reference appendResult is compared against.
func boxedResult(t *testing.T, id string, recs []data.Record, digest string) []byte {
	t.Helper()
	rows := make([][]any, len(recs))
	for i, rec := range recs {
		row := make([]any, rec.Len())
		for f := range row {
			switch v := rec.Field(f); v.Kind() {
			case data.KindBool:
				row[f] = v.Bool()
			case data.KindInt:
				row[f] = v.Int()
			case data.KindFloat:
				row[f] = v.Float()
			case data.KindString:
				row[f] = v.Str()
			case data.KindVector:
				row[f] = v.Vec()
			}
		}
		rows[i] = row
	}
	out, err := json.Marshal(struct {
		ID      string  `json:"id"`
		Records int     `json:"records"`
		Digest  string  `json:"digest"`
		Rows    [][]any `json:"rows"`
	}{id, len(recs), digest, rows})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// decodeExact decodes a JSON document keeping every number's text.
func decodeExact(t *testing.T, doc []byte) any {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(doc)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%v in %s", err, doc)
	}
	return v
}

// TestResultJSONMatchesEncodingJSON: the hand-written result body decodes
// to exactly what encoding/json wrote for the same records — number texts
// included, so the float form is encoding/json's digit for digit — over
// every kind of value and the numbers and strings an encoder gets wrong.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Null(), data.Bool(true), data.Bool(false), data.Int(0), data.Int(-1),
			data.Int(math.MaxInt64), data.Int(math.MinInt64)),
		data.NewRecord(data.Float(0), data.Float(math.Copysign(0, -1)), data.Float(1e21), data.Float(1e20),
			data.Float(1e-7), data.Float(1e-6), data.Float(-123.456e-9), data.Float(5e-324), data.Float(math.MaxFloat64),
			data.Float(0.1), data.Float(100), data.Float(1.0/3), data.Float(-2.5e22)),
		data.NewRecord(data.Str(""), data.Str("plain"), data.Str(`quote " and \ backslash`), data.Str("tab\tnewline\ncr\rbell\a nul\x00 esc\x1b del\x7f"),
			data.Str("<html> & 'amp'"), data.Str("ünïcödé 🚀 \u2028\u2029"), data.Str("bad \xff utf8 \xc3"), data.Str("\xe2\x80")),
		data.NewRecord(data.Vec(nil), data.Vec([]float64{}), data.Vec([]float64{1, -0.5, 1e21, 1e-7})),
		data.NewRecord(),
	}
	for _, tc := range [][]data.Record{recs, nil, recs[4:]} {
		want := decodeExact(t, boxedResult(t, "j-7", tc, "ab12"))
		got := decodeExact(t, appendResult(nil, "j-7", tc, "ab12"))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("result body decodes differently:\n want %v\n got  %v", want, got)
		}
	}
	// Appending to a used buffer writes the same body after what it holds.
	body := appendResult([]byte("xx"), "j-7", recs, "ab12")
	if string(body[2:]) != string(appendResult(nil, "j-7", recs, "ab12")) {
		t.Error("appendResult depends on what its buffer held")
	}
}

// TestResultNonFiniteFloatIsNull: a NaN or an infinity in a result used to
// make encoding/json fail after the 200 header was out, and the client
// got an empty body. It is written as null; the digest covers the value.
func TestResultNonFiniteFloatIsNull(t *testing.T) {
	s, srv := startAPI(t, Config{})
	schema, err := data.NewSchema(data.Field{Name: "x", Type: data.KindFloat}, data.Field{Name: "v", Type: data.KindVector})
	if err != nil {
		t.Fatal(err)
	}
	odd := []data.Record{
		data.NewRecord(data.Float(math.NaN()), data.Vec([]float64{math.Inf(1), 2})),
		data.NewRecord(data.Float(math.Inf(-1)), data.Vec(nil)),
		data.NewRecord(data.Float(1.5), data.Vec([]float64{})),
	}
	if err := s.cat.Register("odd", schema, odd); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(Request{Spec: Spec{Kind: KindSQL, Query: "SELECT x, v FROM odd"}})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, st.ID); final.State != StateSucceeded {
		t.Fatalf("job ended %s (%s)", final.State, final.Err)
	}
	var res struct {
		Records int     `json:"records"`
		Digest  string  `json:"digest"`
		Rows    [][]any `json:"rows"`
	}
	resp := getJSON(t, srv.URL+"/jobs/"+st.ID+"/result", &res)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("result: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	want := [][]any{{nil, []any{nil, 2.0}}, {nil, nil}, {1.5, []any{}}}
	if res.Records != 3 || !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v (%d records), want %v", res.Rows, res.Records, want)
	}
	if wantDigest, _ := Digest(odd); res.Digest != wantDigest {
		t.Errorf("digest %s does not cover the records as they are (%s)", res.Digest, wantDigest)
	}
}
