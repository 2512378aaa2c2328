package sparksim

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// stageRows is enough rows for every stage to fan out: three morsels and
// then some.
const stageRows = 3*morselRows + 1000

// readings are (key, value, name) rows: 97 keys, floats whose sums depend
// on the order they are added in, and strings so bytes vary per record.
func readings(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = data.NewRecord(data.Int(int64(i*7919%97)), data.Float(float64(i)*0.1+1.0/float64(i+3)),
			data.Str(strings.Repeat("x", i%13)))
	}
	return out
}

// setTask installs the atTask hook for the test.
func setTask(t *testing.T, f func(i int, helper bool)) {
	t.Helper()
	atTask.Store(&f)
	t.Cleanup(func() { atTask.Store(nil) })
}

// execute runs a one-plan atom on p under ctx and returns its records.
func execute(ctx context.Context, p *Platform, build func(b *plan.Builder)) ([]data.Record, engine.Metrics, error) {
	sink, m, err := runAtom(ctx, p, build)
	if err != nil {
		return nil, m, err
	}
	parts, err := partsOf(sink)
	if err != nil {
		return nil, m, err
	}
	return flatten(parts), m, nil
}

// TestStagesMatchSerial runs every kind of stage over inputs that fan
// out, at GOMAXPROCS 1 (every task on the atom's goroutine) and 4, and
// demands the same records, byte for byte, and the same volumes.
func TestStagesMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var onHelper atomic.Int64
	setTask(t, func(_ int, helper bool) {
		if helper {
			onHelper.Add(1)
		}
	})
	encode := func(recs []data.Record) []byte {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	recs := readings(stageRows)
	right := readings(300)
	key := plan.FieldKey(0)
	plans := map[string]func(b *plan.Builder){
		"map": func(b *plan.Builder) {
			b.Collect(b.Map(b.Source("s", plan.Collection(recs)), func(r data.Record) (data.Record, error) {
				return r.Append(data.Float(r.Field(1).Float() * 3)), nil
			}))
		},
		"flatmap": func(b *plan.Builder) {
			b.Collect(b.FlatMap(b.Source("s", plan.Collection(recs)), func(r data.Record) ([]data.Record, error) {
				return []data.Record{r, r}[:r.Field(0).Int()%3], nil
			}))
		},
		"filter": func(b *plan.Builder) {
			b.Collect(b.Filter(b.Source("s", plan.Collection(recs)), func(r data.Record) (bool, error) {
				return r.Field(0).Int()%2 == 0, nil
			}))
		},
		"reducebykey": func(b *plan.Builder) {
			b.Collect(b.ReduceByKey(b.Source("s", plan.Collection(recs)), key, func(a, c data.Record) (data.Record, error) {
				return data.NewRecord(a.Field(0), data.Float(a.Field(1).Float()+c.Field(1).Float()), a.Field(2)), nil
			}))
		},
		"groupby": func(b *plan.Builder) {
			b.Collect(b.GroupBy(b.Source("s", plan.Collection(recs)), key, func(k data.Value, g []data.Record) ([]data.Record, error) {
				sum := 0.0
				for _, r := range g {
					sum += r.Field(1).Float()
				}
				return []data.Record{data.NewRecord(k, data.Float(sum), data.Int(int64(len(g))))}, nil
			}))
		},
		"distinct": func(b *plan.Builder) {
			b.Collect(b.Distinct(b.Map(b.Source("s", plan.Collection(recs)), func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(0), r.Field(2)), nil
			})))
		},
		"join": func(b *plan.Builder) {
			b.Collect(b.Join(b.Source("l", plan.Collection(recs)), b.Source("r", plan.Collection(right)), key, key))
		},
		"sort": func(b *plan.Builder) {
			b.Collect(b.Sort(b.Source("s", plan.Collection(recs)), plan.FieldKey(1), true))
		},
		"thetajoin": func(b *plan.Builder) {
			b.Collect(b.ThetaJoin(b.Source("l", plan.Collection(recs)), b.Source("r", plan.Collection(right[:20])),
				func(l, r data.Record) (bool, error) { return l.Field(0).Int() < r.Field(0).Int()/8, nil }))
		},
	}
	p := New(Config{JobOverhead: time.Millisecond})
	// The shuffle against the loop it replaced: every bucket holds its
	// records in the order one pass over the partitions appends them.
	runtime.GOMAXPROCS(4)
	parts := splitEven(recs, p.cfg.Partitions)
	shuffled, err := (&datasetOps{cfg: p.cfg}).partitionByKey(context.Background(), newDataset(parts), key)
	if err != nil {
		t.Fatal(err)
	}
	loop := make([][]data.Record, p.cfg.Partitions)
	for _, part := range parts {
		for _, r := range part {
			b := data.Hash(r.Field(0), 7) % uint64(len(loop))
			loop[b] = append(loop[b], r)
		}
	}
	for b := range loop {
		if !bytes.Equal(encode(loop[b]), encode(shuffled[b])) {
			t.Errorf("bucket %d: %d records, the loop's %d, or in another order", b, len(shuffled[b]), len(loop[b]))
		}
	}
	for name, build := range plans {
		runtime.GOMAXPROCS(1)
		serial, sm, err := execute(context.Background(), p, build)
		if err != nil {
			t.Fatalf("%s at GOMAXPROCS 1: %v", name, err)
		}
		runtime.GOMAXPROCS(4)
		got, m, err := execute(context.Background(), p, build)
		if err != nil {
			t.Fatalf("%s at GOMAXPROCS 4: %v", name, err)
		}
		if len(serial) == 0 {
			t.Fatalf("%s: no records", name)
		}
		if !bytes.Equal(encode(serial), encode(got)) {
			t.Errorf("%s: %d records at GOMAXPROCS 4 differ from the %d at 1", name, len(got), len(serial))
		}
		if m.ShuffledBytes != sm.ShuffledBytes || m.InRecords != sm.InRecords || m.OutRecords != sm.OutRecords {
			t.Errorf("%s: shuffled %d, in %d, out %d at GOMAXPROCS 4; %d, %d, %d at 1", name,
				m.ShuffledBytes, m.InRecords, m.OutRecords, sm.ShuffledBytes, sm.InRecords, sm.OutRecords)
		}
	}
	if onHelper.Load() == 0 {
		t.Error("no partition ran on a helper at GOMAXPROCS 4")
	}
}

// TestStageStopsOnCancel: once a task cancels the job, no later
// partition's UDF is called, and the stage returns the context's error
// as it is, which engine.RunAtom does not make Fatal.
func TestStageStopsOnCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const parts = 8
	chunk := (stageRows + parts - 1) / parts
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan struct{})
		// Every partition but the first waits, once claimed, for the first
		// to cancel: whichever goroutine claimed it, it then finds the
		// context done.
		setTask(t, func(i int, _ bool) {
			if i > 0 {
				<-cancelled
			}
		})
		var later atomic.Int64
		_, _, err := execute(ctx, New(Config{Partitions: parts, JobOverhead: time.Millisecond}), func(b *plan.Builder) {
			b.Collect(b.Map(b.Source("s", plan.Collection(intRecords(stageRows))), func(r data.Record) (data.Record, error) {
				switch {
				case r.Field(0).Int() == 0:
					cancel()
					close(cancelled)
				case int(r.Field(0).Int()) >= chunk:
					later.Add(1)
				}
				return r, nil
			}))
		})
		cancel()
		if err != context.Canceled {
			t.Errorf("GOMAXPROCS %d: err = %v, want context.Canceled itself", procs, err)
		}
		if engine.IsFatal(err) {
			t.Errorf("GOMAXPROCS %d: a cancelled stage is Fatal: %v", procs, err)
		}
		if n := later.Load(); n != 0 {
			t.Errorf("GOMAXPROCS %d: the UDF ran on %d records of later partitions after the cancel", procs, n)
		}
	}
}

// TestStageFailuresInPartitionOrder: a UDF's panic on a helper fails
// the job as the same panic on the atom's goroutine does — the same
// first line, Fatal, the helper's frames in the text — and of errors and
// panics in several partitions the first in partition order is reported.
// engine.HelperTask keeps the panicking partition for a helper.
func TestStageFailuresInPartitionOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const parts = 8
	chunk := (stageRows + parts - 1) / parts
	var helperRan [parts]atomic.Bool
	setTask(t, func(i int, helper bool) { helperRan[i].Store(helper) })
	var anywhere atomic.Bool // panic on the atom's goroutine too: the serial reference
	var panicAt atomic.Int64
	keepForHelper := func(i int) bool { return int64(i) == panicAt.Load() }
	engine.HelperTask.Store(&keepForHelper)
	t.Cleanup(func() { engine.HelperTask.Store(nil) })
	var errs atomic.Pointer[[]int]
	udf := func(r data.Record) (data.Record, error) {
		v := int(r.Field(0).Int())
		if v%chunk != 0 {
			return r, nil
		}
		i := v / chunk
		if int64(i) == panicAt.Load() && (helperRan[i].Load() || anywhere.Load()) {
			panic(fmt.Sprintf("partition %d refused", i))
		}
		for k, e := range *errs.Load() {
			if e == i {
				// A later failing partition fails later, so the first in
				// partition order is not the last to be recorded.
				time.Sleep(time.Duration(1+2*k) * time.Millisecond)
				return r, fmt.Errorf("partition %d failed", i)
			}
		}
		return r, nil
	}
	p := New(Config{Partitions: parts, JobOverhead: time.Millisecond})
	run := func() error {
		_, _, err := execute(context.Background(), p, func(b *plan.Builder) {
			b.Collect(b.Map(b.Source("s", plan.Collection(intRecords(stageRows))), udf))
		})
		return err
	}
	serially := func(at int, failing []int) error {
		panicAt.Store(int64(at))
		errs.Store(&failing)
		anywhere.Store(true)
		runtime.GOMAXPROCS(1)
		return run()
	}
	firstLine := func(err error) string {
		if err == nil {
			return ""
		}
		line, _, _ := strings.Cut(err.Error(), "\n")
		return line
	}
	for _, c := range []struct {
		name    string
		panicAt int
		errs    []int
		want    string
	}{
		{"errors at 2 and 5", -1, []int{2, 5}, "partition 2 failed"},
		{"helper panic at 5, error at 2", 5, []int{2}, "partition 2 failed"},
		{"helper panic at 2, error at 5", 2, []int{5}, "partition 2 refused"},
		{"helper panic at 6", 6, nil, "partition 6 refused"},
	} {
		serial := serially(c.panicAt, c.errs)
		if serial == nil || !strings.Contains(serial.Error(), c.want) || !engine.IsFatal(serial) {
			t.Fatalf("%s: the serial stage returned %v, want a Fatal %q", c.name, serial, c.want)
		}
		panicAt.Store(int64(c.panicAt))
		anywhere.Store(false)
		for i := range helperRan {
			helperRan[i].Store(false)
		}
		runtime.GOMAXPROCS(4)
		err := run()
		if firstLine(err) != firstLine(serial) || !engine.IsFatal(err) {
			t.Fatalf("%s: the fanned-out stage returned %v, serial %v", c.name, err, serial)
		}
		if strings.Contains(c.want, "refused") {
			if !helperRan[c.panicAt].Load() {
				t.Fatalf("%s: no helper ran the panicking partition", c.name)
			}
			if !strings.Contains(err.Error(), "core/engine.help(") {
				t.Fatalf("%s: the helper's panic lost the helper's stack:\n%v", c.name, err)
			}
		}
	}
}

// TestHelpersBounded: however many stages run at once, no more than
// GOMAXPROCS−1 helpers do, and every one gives its place back.
func TestHelpersBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	var peak atomic.Int32
	setTask(t, func(int, bool) {
		for {
			n, _ := engine.Helpers()
			was := peak.Load()
			if int32(n) <= was || peak.CompareAndSwap(was, int32(n)) {
				return
			}
		}
	})
	p := New(Config{JobOverhead: time.Millisecond})
	done := make(chan error)
	for g := 0; g < 8; g++ {
		go func() {
			_, _, err := execute(context.Background(), p, func(b *plan.Builder) {
				b.Collect(b.Map(b.Source("s", plan.Collection(intRecords(stageRows))), plan.Identity()))
			})
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := peak.Load(); n > 3 {
		t.Errorf("%d helpers ran at once at GOMAXPROCS 4", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n, _ := engine.Helpers(); n != 0 && time.Now().Before(deadline); n, _ = engine.Helpers() {
		time.Sleep(time.Millisecond)
	}
	if n, _ := engine.Helpers(); n != 0 {
		t.Errorf("%d helpers still hold the budget after every stage ended", n)
	}
}
