package batch

import (
	"testing"

	"rheem/internal/data"
)

// BenchmarkFromRecords transposes 1M two-column rows into typed
// columns — the conversion a hinted chain pays once when it is fed rows
// (colscan-1m's shape).
func BenchmarkFromRecords(b *testing.B) {
	const rows = 1_000_000
	recs := make([]data.Record, rows)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Float(float64(i%1000)/8))
	}
	b.ReportAllocs()
	b.SetBytes(data.TotalBytes(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := FromRecords(recs); got.Len() != rows {
			b.Fatal(got.Len())
		}
	}
}

// BenchmarkFillWindow is the same transposition taken 4 096 rows at a
// time into two columns that are reused — what a forced pipeline pays
// for rows from inside its atom. It must allocate nothing per pass and
// cost no more per row than BenchmarkFromRecords.
func BenchmarkFillWindow(b *testing.B) {
	const rows, window = 1_000_000, 4096
	recs := make([]data.Record, rows)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Float(float64(i%1000)/8))
	}
	cols := make([]Column, 2)
	b.ReportAllocs()
	b.SetBytes(data.TotalBytes(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < rows; lo += window {
			win := recs[lo:min(lo+window, rows)]
			if w, ok := Width(win); !ok || w != len(cols) {
				b.Fatal(w, ok)
			}
			for c := range cols {
				cols[c].Fill(win, c)
			}
		}
	}
}
