package bench

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rheem/internal/core/executor"
	"rheem/internal/data"
)

func colRecordBytes(t *testing.T, recs []data.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColumnarSpeedup is E13's acceptance gate on the hot-path chain:
// the hinted plan must produce byte-identical results to its UDF twin
// and be meaningfully faster on wall clock. The gate here is a
// conservative 1.5× at a mid size so it holds under the race detector
// and on loaded CI boxes; the full gap at 1M rows is E13's table
// (rheem-bench -experiment columnar).
func TestColumnarSpeedup(t *testing.T) {
	const rows, reps = 200_000, 3
	recs := ColumnarRecords(rows)
	run := func(hinted bool) *executor.Result {
		t.Helper()
		ctx, err := newCtx(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		res, err := RunColumnarTraced(ctx, nil, recs, hinted)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	best := func(hinted bool) (*executor.Result, time.Duration) {
		runtime.GC()
		res := run(hinted)
		min := res.Metrics.Wall
		for i := 1; i < reps; i++ {
			runtime.GC()
			if r := run(hinted); r.Metrics.Wall < min {
				res, min = r, r.Metrics.Wall
			}
		}
		return res, min
	}

	udf, udfWall := best(false)
	col, colWall := best(true)
	if !bytes.Equal(colRecordBytes(t, udf.Records), colRecordBytes(t, col.Records)) {
		t.Errorf("hinted plan's records differ from its UDF twin's:\n  udf    %v\n  hinted %v", udf.Records, col.Records)
	}
	speedup := float64(udfWall) / float64(colWall)
	t.Logf("wall: udf %v, hinted %v — %.2fx at %d rows", udfWall, colWall, speedup, rows)
	if speedup < 1.5 {
		t.Errorf("hinted plan speedup %.2fx, want ≥1.5x (udf %v, hinted %v)", speedup, udfWall, colWall)
	}
}

// TestColumnarQuick smoke-runs the registered experiment end to end at
// the quick scale, as every registered experiment must support.
func TestColumnarQuick(t *testing.T) {
	tables, err := columnar(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("columnar experiment produced no table rows: %v", tables)
	}
}
