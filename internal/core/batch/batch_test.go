package batch

import (
	"bytes"
	"math"
	"testing"

	"rheem/internal/data"
)

// encode renders records under the canonical binary encoding — the
// byte-identity yardstick every round-trip assertion uses.
func encode(t *testing.T, recs []data.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// fixtures returns named record sets covering the format's whole
// decision space: typed columns, nulls, all-null columns, mixed kinds,
// vectors, empty records, ragged sets, and the empty set.
func fixtures() map[string][]data.Record {
	return map[string][]data.Record{
		"empty": {},
		"typed": {
			data.NewRecord(data.Int(1), data.Float(1.5), data.Str("a"), data.Bool(true)),
			data.NewRecord(data.Int(2), data.Float(-2.5), data.Str(""), data.Bool(false)),
			data.NewRecord(data.Int(-1<<62), data.Float(math.Inf(1)), data.Str("héllo\x00"), data.Bool(true)),
		},
		"nulls": {
			data.NewRecord(data.Int(1), data.Str("x")),
			data.NewRecord(data.Null(), data.Str("y")),
			data.NewRecord(data.Int(3), data.Null()),
		},
		"all-null-column": {
			data.NewRecord(data.Null(), data.Int(1)),
			data.NewRecord(data.Null(), data.Int(2)),
		},
		"mixed-kinds": {
			data.NewRecord(data.Int(1)),
			data.NewRecord(data.Str("two")),
			data.NewRecord(data.Float(3)),
		},
		"vectors": {
			data.NewRecord(data.Vec([]float64{1, 2}), data.Int(1)),
			data.NewRecord(data.Vec(nil), data.Int(2)),
		},
		"nan-floats": {
			data.NewRecord(data.Float(math.NaN())),
			data.NewRecord(data.Float(-0.0)),
			data.NewRecord(data.Float(0.0)),
		},
		"zero-width": {
			data.NewRecord(),
			data.NewRecord(),
		},
		"ragged": {
			data.NewRecord(data.Int(1)),
			data.NewRecord(data.Int(2), data.Str("extra")),
		},
		"single": {
			data.NewRecord(data.Str("only")),
		},
	}
}

func TestRoundTripByteIdentity(t *testing.T) {
	for name, recs := range fixtures() {
		t.Run(name, func(t *testing.T) {
			b := FromRecords(recs)
			if b.Len() != len(recs) {
				t.Fatalf("Len = %d, want %d", b.Len(), len(recs))
			}
			got := b.ToRecords()
			if want, have := encode(t, recs), encode(t, got); !bytes.Equal(want, have) {
				t.Fatalf("round trip not byte-identical:\n want %x\n have %x", want, have)
			}
		})
	}
}

func TestColumnRepresentations(t *testing.T) {
	fx := fixtures()
	b := FromRecords(fx["typed"])
	if !b.Columnar() {
		t.Fatal("rectangular scalar input should be columnar")
	}
	wantKinds := []ColKind{ColInt64, ColFloat64, ColString, ColBool}
	for c, want := range wantKinds {
		if got := b.Col(c).Kind; got != want {
			t.Errorf("column %d kind = %s, want %s", c, got, want)
		}
		if b.Col(c).Valid != nil {
			t.Errorf("column %d has a validity bitmap despite no nulls", c)
		}
	}

	nb := FromRecords(fx["nulls"])
	if nb.Col(0).Valid == nil {
		t.Error("nullable int column should carry a validity bitmap")
	}
	if nb.Col(0).ValidAt(nb.Off(), 1) {
		t.Error("row 1 of column 0 should be null")
	}
	if !nb.Col(0).ValidAt(nb.Off(), 0) {
		t.Error("row 0 of column 0 should be valid")
	}

	if k := FromRecords(fx["all-null-column"]).Col(0).Kind; k != ColAny {
		t.Errorf("all-null column kind = %s, want %s", k, ColAny)
	}
	if k := FromRecords(fx["mixed-kinds"]).Col(0).Kind; k != ColAny {
		t.Errorf("mixed-kind column kind = %s, want %s", k, ColAny)
	}
	if k := FromRecords(fx["vectors"]).Col(0).Kind; k != ColAny {
		t.Errorf("vector column kind = %s, want %s", k, ColAny)
	}
	if FromRecords(fx["ragged"]).Columnar() {
		t.Error("ragged input should take the row-backed fallback")
	}
}

// TestFromRecordsSelectedColumns pins the column-list form: it is
// FromRecords(recs).Project(cols...) — same representations, same
// records back — for every fixture shape; ragged input stays whole.
func TestFromRecordsSelectedColumns(t *testing.T) {
	for name, recs := range fixtures() {
		t.Run(name, func(t *testing.T) {
			whole := FromRecords(recs)
			if !whole.Columnar() {
				if got := FromRecords(recs, 0); got.Columnar() || got.Len() != len(recs) {
					t.Fatalf("ragged input with a column list: columnar=%v len=%d, want the row-backed whole", got.Columnar(), got.Len())
				}
				return
			}
			if whole.NumCols() == 0 {
				return
			}
			cols := []int{whole.NumCols() - 1, 0, whole.NumCols() - 1}
			got, want := FromRecords(recs, cols...), whole.Project(cols...)
			if got.NumCols() != len(cols) {
				t.Fatalf("NumCols = %d, want %d", got.NumCols(), len(cols))
			}
			for c := range cols {
				if got.Col(c).Kind != want.Col(c).Kind {
					t.Errorf("column %d kind = %s, want %s", c, got.Col(c).Kind, want.Col(c).Kind)
				}
			}
			if w, h := encode(t, want.ToRecords()), encode(t, got.ToRecords()); !bytes.Equal(w, h) {
				t.Fatalf("selected columns differ from the projection of the whole:\n want %x\n have %x", w, h)
			}
		})
	}
}

// TestSliceViews checks that Slice is a zero-copy view with correct
// validity mapping through the shared bitmap, and that re-slicing a
// slice composes.
func TestSliceViews(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Int(0)),
		data.NewRecord(data.Null()),
		data.NewRecord(data.Int(2)),
		data.NewRecord(data.Int(3)),
		data.NewRecord(data.Null()),
	}
	b := FromRecords(recs)
	view := b.Slice(1, 4)
	if view.Len() != 3 {
		t.Fatalf("view length = %d, want 3", view.Len())
	}
	// Zero-copy: the view's typed storage aliases the parent's.
	if &view.Col(0).Int64s[0] != &b.Col(0).Int64s[1] {
		t.Error("Slice copied the typed storage")
	}
	if want, have := encode(t, recs[1:4]), encode(t, view.ToRecords()); !bytes.Equal(want, have) {
		t.Fatalf("view rows diverge from record slice:\n want %x\n have %x", want, have)
	}
	sub := view.Slice(1, 3) // rows 2..3 of the original
	if want, have := encode(t, recs[2:4]), encode(t, sub.ToRecords()); !bytes.Equal(want, have) {
		t.Fatalf("re-slice diverges:\n want %x\n have %x", want, have)
	}
	// Clamping matches slice-expression clamping.
	if got := b.Slice(-3, 99).Len(); got != len(recs) {
		t.Errorf("clamped slice length = %d, want %d", got, len(recs))
	}
	if got := b.Slice(4, 2).Len(); got != 0 {
		t.Errorf("inverted bounds length = %d, want 0", got)
	}
}

func TestProject(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Int(1), data.Str("a"), data.Bool(true)),
		data.NewRecord(data.Int(2), data.Str("b"), data.Bool(false)),
	}
	b := FromRecords(recs)
	p := b.Project(2, 0)
	want := []data.Record{
		data.NewRecord(data.Bool(true), data.Int(1)),
		data.NewRecord(data.Bool(false), data.Int(2)),
	}
	if w, h := encode(t, want), encode(t, p.ToRecords()); !bytes.Equal(w, h) {
		t.Fatalf("projection mismatch:\n want %x\n have %x", w, h)
	}
	// Zero-copy: projected column aliases the source storage.
	if &p.Col(1).Int64s[0] != &b.Col(0).Int64s[0] {
		t.Error("Project copied the typed storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("Project on a row-backed batch should panic")
		}
	}()
	FromRows(recs).Project(0)
}

func TestNewValidatesColumnLengths(t *testing.T) {
	_, err := New(3, []Column{{Kind: ColInt64, Int64s: make([]int64, 2)}})
	if err == nil {
		t.Fatal("New accepted a short column")
	}
}

func TestBytesMatchesRecordAccounting(t *testing.T) {
	for name, recs := range fixtures() {
		t.Run(name, func(t *testing.T) {
			b := FromRecords(recs)
			if got, want := b.Bytes(), data.TotalBytes(recs); got != want {
				t.Errorf("Bytes = %d, want %d (data.TotalBytes)", got, want)
			}
		})
	}
}

// FuzzBatchRoundTrip drives codec-decoded record sets through the
// columnar conversion: Collection → Batch → Collection must be
// byte-identical under the canonical encoding for every input the
// codec accepts, and slicing must agree with record subslicing.
func FuzzBatchRoundTrip(f *testing.F) {
	for _, recs := range fixtures() {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 0, len(recs))
		f.Add(buf.Bytes(), 1, len(recs)-1) // an interior window: Fill into used storage
	}
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi int) {
		recs, err := data.ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return
		}
		b := FromRecords(recs)
		if b.Len() != len(recs) {
			t.Fatalf("Len = %d, want %d", b.Len(), len(recs))
		}
		if want, have := encode(t, recs), encode(t, b.ToRecords()); !bytes.Equal(want, have) {
			t.Fatalf("round trip not byte-identical:\n want %x\n have %x", want, have)
		}
		if got, want := b.Bytes(), data.TotalBytes(recs); got != want {
			t.Fatalf("Bytes = %d, want %d", got, want)
		}
		// Clamp the fuzzed range the way Slice clamps, then compare the
		// view against the equivalent record subslice.
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi < 0 {
			chi = 0
		}
		if chi > len(recs) {
			chi = len(recs)
		}
		if clo > chi {
			clo = chi
		}
		view := b.Slice(lo, hi)
		if want, have := encode(t, recs[clo:chi]), encode(t, view.ToRecords()); !bytes.Equal(want, have) {
			t.Fatalf("slice [%d:%d) not byte-identical to record subslice", lo, hi)
		}
		// The window-at-a-time transposition agrees with the whole-input
		// one: Fill over a window, into columns that already held another
		// (storage reused, kinds possibly different), is that Slice.
		if w, ok := Width(recs); ok && w > 0 && clo < chi {
			cols := make([]Column, w)
			for _, win := range [][]data.Record{recs, recs[clo:chi]} {
				for c := range cols {
					cols[c].Fill(win, c)
				}
			}
			filled, err := New(chi-clo, cols)
			if err != nil {
				t.Fatal(err)
			}
			if want, have := encode(t, view.ToRecords()), encode(t, filled.ToRecords()); !bytes.Equal(want, have) {
				t.Fatalf("windowed fill of [%d:%d) not byte-identical to the slice", lo, hi)
			}
		}
	})
}
