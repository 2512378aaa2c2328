package sparksim

import (
	"context"
	"fmt"
	"time"

	"rheem/internal/core/algo"
	"rheem/internal/core/channel"
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

// mapPartitions applies f to every partition as one stage, measuring
// real per-partition compute for the wave model.
func (d *datasetOps) mapPartitions(parts [][]data.Record, f func([]data.Record) ([]data.Record, error)) ([][]data.Record, error) {
	out := make([][]data.Record, len(parts))
	times := make([]time.Duration, len(parts))
	for i, p := range parts {
		t0 := time.Now()
		np, err := f(p)
		if err != nil {
			return nil, err
		}
		times[i] = time.Since(t0)
		out[i] = np
	}
	d.stage(times)
	return out, nil
}

// partitionByKey redistributes records into cfg.Partitions buckets by
// key hash — a full shuffle. Key extraction is charged as a map stage;
// the movement as shuffle volume.
func (d *datasetOps) partitionByKey(parts [][]data.Record, key plan.KeyFunc) ([][]data.Record, error) {
	var records int64
	for _, p := range parts {
		records += int64(len(p))
	}
	n := d.cfg.tunedPartitions(records)
	buckets := make([][]data.Record, n)
	times := make([]time.Duration, len(parts))
	var bytes int64
	for i, p := range parts {
		t0 := time.Now()
		for _, r := range p {
			k, err := key(r)
			if err != nil {
				return nil, fmt.Errorf("sparksim: shuffle key: %w", err)
			}
			b := int(data.Hash(k, 7) % uint64(n))
			buckets[b] = append(buckets[b], r)
			bytes += int64(r.Bytes())
		}
		times[i] = time.Since(t0)
	}
	d.stage(times)
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
func (d *datasetOps) ExecOp(_ context.Context, op *physical.Operator, inputs []any) (any, error) {
	in := func(i int) [][]data.Record { return inputs[i].([][]data.Record) }
	lop := op.Logical
	var rAll []data.Record // a broadcast right side
	rows := func(p []data.Record) ([]data.Record, error) { return algo.Exec(op, p, rAll) }
	// onDriver applies the operator once more to its per-partition
	// partials, collected on the driver; the time is charged there,
	// divided by par where the step is modelled as a parallel merge.
	onDriver := func(partials [][]data.Record, par int) ([]data.Record, error) {
		t0 := time.Now()
		out, err := rows(flatten(partials))
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
		return d.mapPartitions(in(0), rows)

	case plan.KindGroupBy, plan.KindDistinct:
		key := lop.Key
		if lop.Kind() == plan.KindDistinct {
			key = plan.RecordKey()
		}
		shuffled, err := d.partitionByKey(in(0), key)
		if err != nil {
			return nil, err
		}
		return d.mapPartitions(shuffled, rows)

	case plan.KindReduceByKey:
		// Map-side combine, then shuffle, then final reduce — the real
		// Spark execution strategy, which keeps shuffle volume at
		// O(partitions × keys).
		combined, err := d.mapPartitions(in(0), rows)
		if err != nil {
			return nil, err
		}
		shuffled, err := d.partitionByKey(combined, lop.Key)
		if err != nil {
			return nil, err
		}
		return d.mapPartitions(shuffled, rows)

	case plan.KindReduce:
		partials, err := d.mapPartitions(in(0), rows)
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
		sortedParts, err := d.mapPartitions(in(0), rows)
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
		lParts, err := d.partitionByKey(in(0), lop.Key)
		if err != nil {
			return nil, err
		}
		rParts, err := d.partitionByKey(in(1), lop.RightKey)
		if err != nil {
			return nil, err
		}
		out := make([][]data.Record, len(lParts))
		times := make([]time.Duration, len(lParts))
		for i := range lParts {
			t0 := time.Now()
			if out[i], err = algo.Exec(op, lParts[i], rParts[i]); err != nil {
				return nil, err
			}
			times[i] = time.Since(t0)
		}
		d.stage(times)
		return out, nil

	case plan.KindThetaJoin, plan.KindCartesian:
		// Broadcast the right side to every worker, then join each
		// left partition against the full right side.
		rAll = flatten(in(1))
		d.broadcast(data.TotalBytes(rAll))
		return d.mapPartitions(in(0), rows)

	case plan.KindCount:
		var n int64
		for _, p := range in(0) {
			n += int64(len(p))
		}
		d.driver(10 * time.Microsecond)
		return [][]data.Record{{data.NewRecord(data.Int(n))}}, nil

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
