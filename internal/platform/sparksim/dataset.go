package sparksim

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"rheem/internal/core/algo"
	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// datasetOps executes physical operators over partitioned datasets and
// accumulates the virtual cluster clock. One datasetOps instance lives
// for one simulated job (one atom execution).
type datasetOps struct {
	cfg        Config
	clock      time.Duration // simulated time accumulated by stages
	shuffled   int64         // bytes through shuffles and broadcasts
	inRecords  int64
	outRecords int64
}

func (d *datasetOps) FromChannel(ch *channel.Channel) (any, error) {
	parts, err := partsOf(ch)
	if err != nil {
		return nil, err
	}
	d.inRecords += ch.Records
	return parts, nil
}

func (d *datasetOps) ToChannel(ds any) (*channel.Channel, error) {
	parts := ds.([][]data.Record)
	ch := newPartChannel(parts)
	d.outRecords += ch.Records
	return ch, nil
}

// stage charges one scheduling stage to the virtual clock: tasks run in
// waves of Slots, each wave takes its slowest task plus dispatch
// overhead.
func (d *datasetOps) stage(taskTimes []time.Duration) {
	slots := d.cfg.Slots()
	for i := 0; i < len(taskTimes); i += slots {
		end := i + slots
		if end > len(taskTimes) {
			end = len(taskTimes)
		}
		var worst time.Duration
		for _, t := range taskTimes[i:end] {
			if t > worst {
				worst = t
			}
		}
		d.clock += worst + d.cfg.TaskOverhead
	}
}

// shuffle charges moving the given volume through the shuffle fabric.
func (d *datasetOps) shuffle(bytes int64) {
	if bytes <= 0 {
		return
	}
	d.shuffled += bytes
	d.clock += time.Duration(float64(bytes) / shuffleBandwidth * 1e9)
}

// broadcast charges replicating the given volume to every worker.
func (d *datasetOps) broadcast(bytes int64) {
	if bytes <= 0 {
		return
	}
	total := bytes * int64(d.cfg.Workers)
	d.shuffled += total
	d.clock += time.Duration(float64(total) / broadcastBandwidth * 1e9)
}

// driver charges work executed on the simulated driver (no
// parallelism, no dispatch overhead).
func (d *datasetOps) driver(t time.Duration) { d.clock += t }

// morselRows is the smallest stage whose tasks fan out: javaengine's
// window, the morsel size there. A smaller stage's tasks all run on the
// atom's goroutine, because starting a helper costs more than they do.
const morselRows = 4096

// atTask, set by tests, is called with each partition a stage runs, before
// it runs, and whether a helper claimed it.
var atTask atomic.Pointer[func(i int, helper bool)]

// runStage runs task(i) for every partition i in [0, n) as one stage of
// the virtual clock: on the atom's goroutine and, for a stage of rows ≥
// morselRows, on the helpers the process-wide budget has free (engine.Run).
// Results cannot depend on how many goroutines ran: task i writes what
// belongs to partition i alone, and measures its own wall time. A
// partition that finds the context cancelled fails with its error.
func (d *datasetOps) runStage(ctx context.Context, n, rows int, task func(i int) error) error {
	times, want := make([]time.Duration, n), 0
	if rows >= morselRows {
		want = n - 1
	}
	err := engine.Run(n, want, func(i int, helper bool) error {
		if f := atTask.Load(); f != nil {
			(*f)(i, helper)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		err := task(i)
		times[i] = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	d.stage(times)
	return nil
}

// rowCount is the number of records across partitions.
func rowCount(parts [][]data.Record) int {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// mapPartitions applies op to every partition, against the broadcast
// right side if it has one, as one stage, measuring real per-partition
// compute for the wave model.
func (d *datasetOps) mapPartitions(ctx context.Context, op *physical.Operator, parts [][]data.Record, broadcast []data.Record) ([][]data.Record, error) {
	out := make([][]data.Record, len(parts))
	err := d.runStage(ctx, len(parts), rowCount(parts), func(i int) (err error) {
		out[i], err = algo.Exec(op, parts[i], broadcast)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// partitionByKey redistributes records into cfg.Partitions buckets by
// key hash — a full shuffle. Key extraction and hashing are charged as a
// map stage, the movement as shuffle volume. Each task notes the bucket
// of every record of its partition; the records then move in partition
// order, so a bucket holds them in the order a single loop over the
// partitions would have appended them.
func (d *datasetOps) partitionByKey(ctx context.Context, parts [][]data.Record, key plan.KeyFunc) ([][]data.Record, error) {
	records := rowCount(parts)
	n := d.cfg.tunedPartitions(int64(records))
	dest := make([]int32, records) // by record, in partition order
	sizes := make([]int64, len(parts))
	err := d.runStage(ctx, len(parts), records, func(i int) error {
		off := 0
		for _, p := range parts[:i] {
			off += len(p)
		}
		var size int64
		for j, r := range parts[i] {
			k, err := key(r)
			if err != nil {
				return fmt.Errorf("sparksim: shuffle key: %w", err)
			}
			dest[off+j] = int32(data.Hash(k, 7) % uint64(n))
			size += int64(r.Bytes())
		}
		sizes[i] = size
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts := make([]int, n)
	for _, b := range dest {
		counts[b]++
	}
	buckets := make([][]data.Record, n)
	for b, c := range counts {
		if c > 0 {
			buckets[b] = make([]data.Record, 0, c)
		}
	}
	var bytes int64
	j := 0
	for i, p := range parts {
		for _, r := range p {
			buckets[dest[j]] = append(buckets[dest[j]], r)
			j++
		}
		bytes += sizes[i]
	}
	d.shuffle(bytes)
	return buckets, nil
}

// ExecOp executes one physical operator over partitioned datasets —
// the Spark simulator's execution-operator set. Execution operators
// work on whole partitions ("multiple data quanta rather than a single
// one", paper §3.1). The simulator's own are where the rows are and what
// that costs: the split, the shuffle, the map-side combine, the broadcast,
// the driver-side finish, and the clock over all of them. What an
// operator computes on the rows of one partition is algo.Exec's to say.
func (d *datasetOps) ExecOp(ctx context.Context, op *physical.Operator, inputs []any) (any, error) {
	in := func(i int) [][]data.Record { return inputs[i].([][]data.Record) }
	lop := op.Logical
	// onDriver applies the operator once more to its per-partition
	// partials, collected on the driver; the time is charged there,
	// divided by par where the step is modelled as a parallel merge.
	onDriver := func(partials [][]data.Record, par int) ([]data.Record, error) {
		t0 := time.Now()
		out, err := algo.Exec(op, flatten(partials), nil)
		d.driver(time.Since(t0) / time.Duration(par))
		return out, err
	}
	switch lop.Kind() {
	case plan.KindSource:
		t0 := time.Now()
		recs, err := lop.Source()
		if err != nil {
			return nil, err
		}
		d.driver(time.Since(t0))
		// Parallelize. Cluster-resident (cached) input is assumed, so
		// no shuffle volume is charged; see package comment.
		return splitEven(recs, d.cfg.tunedPartitions(int64(len(recs)))), nil

	case plan.KindMap, plan.KindFlatMap, plan.KindFilter:
		return d.mapPartitions(ctx, op, in(0), nil)

	case plan.KindGroupBy, plan.KindDistinct:
		key := lop.Key
		if lop.Kind() == plan.KindDistinct {
			key = plan.RecordKey()
		}
		shuffled, err := d.partitionByKey(ctx, in(0), key)
		if err != nil {
			return nil, err
		}
		return d.mapPartitions(ctx, op, shuffled, nil)

	case plan.KindReduceByKey:
		// Map-side combine, then shuffle, then final reduce — the real
		// Spark execution strategy, which keeps shuffle volume at
		// O(partitions × keys).
		combined, err := d.mapPartitions(ctx, op, in(0), nil)
		if err != nil {
			return nil, err
		}
		shuffled, err := d.partitionByKey(ctx, combined, lop.Key)
		if err != nil {
			return nil, err
		}
		return d.mapPartitions(ctx, op, shuffled, nil)

	case plan.KindReduce:
		partials, err := d.mapPartitions(ctx, op, in(0), nil)
		if err != nil {
			return nil, err
		}
		final, err := onDriver(partials, 1)
		if err != nil {
			return nil, err
		}
		return [][]data.Record{final}, nil

	case plan.KindSort:
		// Global sort: per-partition sort stage, then a merge modelled
		// on the driver, range-split back into partitions. The full
		// volume crosses the wire.
		sortedParts, err := d.mapPartitions(ctx, op, in(0), nil)
		if err != nil {
			return nil, err
		}
		var bytes int64
		for _, p := range sortedParts {
			bytes += data.TotalBytes(p)
		}
		d.shuffle(bytes)
		merged, err := onDriver(sortedParts, max(1, d.cfg.Slots()))
		if err != nil {
			return nil, err
		}
		return splitEven(merged, d.cfg.tunedPartitions(int64(len(merged)))), nil

	case plan.KindUnion:
		l, r := in(0), in(1)
		out := make([][]data.Record, 0, len(l)+len(r))
		out = append(out, l...)
		out = append(out, r...)
		return out, nil

	case plan.KindJoin:
		lParts, err := d.partitionByKey(ctx, in(0), lop.Key)
		if err != nil {
			return nil, err
		}
		rParts, err := d.partitionByKey(ctx, in(1), lop.RightKey)
		if err != nil {
			return nil, err
		}
		out := make([][]data.Record, len(lParts))
		err = d.runStage(ctx, len(lParts), rowCount(lParts)+rowCount(rParts), func(i int) (err error) {
			out[i], err = algo.Exec(op, lParts[i], rParts[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		return out, nil

	case plan.KindThetaJoin, plan.KindCartesian:
		// Broadcast the right side to every worker, then join each
		// left partition against the full right side.
		rAll := flatten(in(1))
		d.broadcast(data.TotalBytes(rAll))
		return d.mapPartitions(ctx, op, in(0), rAll)

	case plan.KindCount:
		d.driver(10 * time.Microsecond)
		return [][]data.Record{{data.NewRecord(data.Int(int64(rowCount(in(0)))))}}, nil

	case plan.KindSample:
		var out []data.Record
		for _, p := range in(0) {
			for _, r := range p {
				if len(out) >= lop.N {
					break
				}
				out = append(out, r)
			}
		}
		d.driver(time.Duration(len(out)) * 50 * time.Nanosecond)
		return [][]data.Record{out}, nil

	case plan.KindSink:
		return in(0), nil
	}
	return nil, fmt.Errorf("sparksim: %s must be driven by the executor", lop.Kind())
}
