package bench

import (
	"bytes"
	"runtime"
	"testing"

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
// conservative 1.5× at a mid size; the full gap at 1M rows is E13's
// table (rheem-bench -experiment columnar). Both plans run at one worker
// so the gate compares the two kernels rather than how each spreads over
// the cores (the UDF twin runs its row windows on every core too), and
// the runs alternate so that a loaded stretch of the box slows both
// sides; each side keeps its fastest of five. On a 2-core box the race
// build read 1.27–1.48× at two workers with the sides run back to back,
// and 1.58–2.46× over 30 runs this way.
func TestColumnarSpeedup(t *testing.T) {
	const rows, reps = 200_000, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	recs := ColumnarRecords(rows)
	run := func(hinted bool) *executor.Result {
		t.Helper()
		ctx, err := newCtx(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		runtime.GC()
		res, err := RunColumnarTraced(ctx, nil, recs, hinted)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var udf, col *executor.Result
	for i := 0; i < reps; i++ {
		if r := run(false); udf == nil || r.Metrics.Wall < udf.Metrics.Wall {
			udf = r
		}
		if r := run(true); col == nil || r.Metrics.Wall < col.Metrics.Wall {
			col = r
		}
	}
	udfWall, colWall := udf.Metrics.Wall, col.Metrics.Wall
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
