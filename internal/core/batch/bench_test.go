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
