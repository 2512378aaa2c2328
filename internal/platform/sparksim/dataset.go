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
// for one simulated job (one atom execution); atom is the one it runs
// (nil in kernel tests), which tells it who reads an operator's output.
type datasetOps struct {
	cfg        Config
	atom       *engine.TaskAtom
	clock      time.Duration // simulated time accumulated by stages
	shuffled   int64         // bytes through shuffles and broadcasts
	inRecords  int64
	outRecords int64
}

// dataset is what the simulator's operators hand one another: partitions,
// and the narrow operators (Map, Filter, FlatMap) not yet run over them.
// The stage that reads it runs the chain inside its own tasks, a partition
// at a time (algo.Chain), so no partition slice is made per operator.
// bytes is the partitions' Bytes once something has counted them, and -1
// before.
type dataset struct {
	parts [][]data.Record
	chain algo.Chain
	bytes int64
}

// newDataset is partitions whose bytes nobody has counted.
func newDataset(parts [][]data.Record) *dataset { return &dataset{parts: parts, bytes: -1} }

func (d *datasetOps) FromChannel(ch *channel.Channel) (any, error) {
	parts, err := partsOf(ch)
	if err != nil {
		return nil, err
	}
	d.inRecords += ch.Records
	return &dataset{parts: parts, bytes: ch.Bytes}, nil
}

// ToChannel exports a dataset. An exit's chain ran where it was produced
// (ExecOp), counting its bytes; partitions nothing counted are counted here.
func (d *datasetOps) ToChannel(ds any) (*channel.Channel, error) {
	out := ds.(*dataset)
	ch := &channel.Channel{Format: channel.Partitioned, Payload: out.parts, Records: int64(rowCount(out.parts)), Bytes: out.size()}
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

// tasks runs task(i) for every partition i in [0, n): on the atom's
// goroutine and, for a stage of rows ≥ morselRows, on the helpers the
// process-wide budget has free (engine.Run). Results cannot depend on how
// many goroutines ran: task i writes what belongs to partition i alone,
// and measures its own wall time, which tasks returns. A partition that
// finds the context cancelled fails with its error.
func (d *datasetOps) tasks(ctx context.Context, n, rows int, task func(i int) error) ([]time.Duration, error) {
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
	return times, err
}

// runStage runs task(i) for every partition i in [0, n) as one stage of
// the virtual clock.
func (d *datasetOps) runStage(ctx context.Context, n, rows int, task func(i int) error) error {
	times, err := d.tasks(ctx, n, rows, task)
	if err != nil {
		return err
	}
	d.stage(times)
	return nil
}

// fused runs the stage that reads ds: task i runs ds's chain over
// partition i and hands what it makes to the reader. own says whether the
// reader has a stage of its own — a combine, a key pass, a sort, an
// operator applied per partition; if not (materialise), the stage is the
// chain's last operator's. The chain's other operators have no stage, so
// each is charged the TaskOverhead of the waves its stage would have run
// in, and modelled time is what it was when every narrow operator was a
// stage.
func (d *datasetOps) fused(ctx context.Context, ds *dataset, own bool, task func(i int) error) error {
	times, err := d.tasks(ctx, len(ds.parts), rowCount(ds.parts), task)
	if err != nil {
		return err
	}
	d.stage(times)
	stageless := len(ds.chain)
	if !own {
		stageless--
	}
	waves := (len(ds.parts) + d.cfg.Slots() - 1) / d.cfg.Slots()
	d.clock += time.Duration(stageless*waves) * d.cfg.TaskOverhead
	return nil
}

// materialise runs ds's chain over every partition, as the stage of its
// last operator, and counts the outputs' Bytes in the same pass.
func (d *datasetOps) materialise(ctx context.Context, ds *dataset) (*dataset, error) {
	if len(ds.chain) == 0 {
		return ds, nil
	}
	out := make([][]data.Record, len(ds.parts))
	sizes := make([]int64, len(ds.parts))
	err := d.fused(ctx, ds, false, func(i int) (err error) {
		out[i], sizes[i], err = ds.chain.Records(ds.parts[i], true)
		return err
	})
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, n := range sizes {
		bytes += n
	}
	return &dataset{parts: out, bytes: bytes}, nil
}

// size is the partitions' Bytes: as counted, or counted now.
func (ds *dataset) size() int64 {
	if ds.bytes >= 0 {
		return ds.bytes
	}
	var n int64
	for _, p := range ds.parts {
		n += data.TotalBytes(p)
	}
	return n
}

// rowCount is the number of records across partitions.
func rowCount(parts [][]data.Record) int {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// mapPartitions applies op to every partition of ds, after ds's chain and
// against the broadcast right side if it has one, as one stage, measuring
// real per-partition compute for the wave model. An operator that folds
// its input — a ReduceByKey or Reduce combine — takes the chain's outputs
// as they come (algo.ExecChain).
func (d *datasetOps) mapPartitions(ctx context.Context, op *physical.Operator, ds *dataset, broadcast []data.Record) (*dataset, error) {
	out := make([][]data.Record, len(ds.parts))
	err := d.fused(ctx, ds, true, func(i int) (err error) {
		out[i], err = algo.ExecChain(op, ds.chain, ds.parts[i], broadcast)
		return err
	})
	if err != nil {
		return nil, err
	}
	return newDataset(out), nil
}

// partitionByKey redistributes the records ds's chain makes into
// buckets by key hash — a full shuffle. The key pass is a map stage, and
// the chain runs inside it: each task keeps its partition's outputs, their
// keys' hashes and their bytes. Once the pass knows how many records there
// are, and so how many buckets, the records move in partition order, so a
// bucket holds them in the order a single loop over the partitions would
// have appended them; the movement is charged as shuffle volume.
func (d *datasetOps) partitionByKey(ctx context.Context, ds *dataset, key plan.KeyFunc) ([][]data.Record, error) {
	parts := make([][]data.Record, len(ds.parts))
	hashes := make([][]uint64, len(parts))
	sizes := make([]int64, len(parts))
	err := d.fused(ctx, ds, true, func(i int) error {
		recs, size, err := ds.chain.Records(ds.parts[i], true)
		if err != nil {
			return err
		}
		hs := make([]uint64, len(recs))
		for j, r := range recs {
			k, err := key(r)
			if err != nil {
				return fmt.Errorf("sparksim: shuffle key: %w", err)
			}
			hs[j] = data.Hash(k, 7)
		}
		parts[i], hashes[i], sizes[i] = recs, hs, size
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := d.cfg.tunedPartitions(int64(rowCount(parts)))
	counts := make([]int, n)
	for _, hs := range hashes {
		for _, h := range hs {
			counts[h%uint64(n)]++
		}
	}
	buckets := make([][]data.Record, n)
	for b, c := range counts {
		if c > 0 {
			buckets[b] = make([]data.Record, 0, c)
		}
	}
	var bytes int64
	for i, p := range parts {
		for j, r := range p {
			b := hashes[i][j] % uint64(n)
			buckets[b] = append(buckets[b], r)
		}
		bytes += sizes[i]
	}
	d.shuffle(bytes)
	return buckets, nil
}

// runsChains reports whether reader, the one operator that reads a narrow
// operator's output, takes it as a chain: another narrow operator extends
// it, and an operator with a stage of its own runs it inside that stage.
// A sink, union, count or sample has none, so the narrow operator runs as
// the stage it would have been, under its own name.
func runsChains(reader *physical.Operator) bool {
	if reader == nil {
		return false
	}
	switch reader.Kind() {
	case plan.KindSink, plan.KindUnion, plan.KindCount, plan.KindSample:
		return false
	}
	return true
}

// ExecOp executes one physical operator over partitioned datasets —
// the Spark simulator's execution-operator set. Execution operators
// work on whole partitions ("multiple data quanta rather than a single
// one", paper §3.1). The simulator's own are where the rows are and what
// that costs: the split, the shuffle, the map-side combine, the broadcast,
// the driver-side finish, and the clock over all of them. What an
// operator computes on the rows of one partition is algo.Exec's to say.
//
// A Map, Filter or FlatMap whose output one operator of the atom reads is
// not run here if that reader runs chains (runsChains): it joins its
// input's chain, which the reader's stage runs — Spark's pipelined narrow
// stage. Any other runs here, once, as a stage of its own.
func (d *datasetOps) ExecOp(ctx context.Context, op *physical.Operator, inputs []any) (any, error) {
	in := func(i int) *dataset { return inputs[i].(*dataset) }
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
		return newDataset(splitEven(recs, d.cfg.tunedPartitions(int64(len(recs))))), nil

	case plan.KindMap, plan.KindFlatMap, plan.KindFilter:
		ds := &dataset{parts: in(0).parts, chain: in(0).chain.Then(lop), bytes: -1}
		if d.atom != nil && runsChains(d.atom.Reader(op)) {
			return ds, nil
		}
		return d.materialise(ctx, ds)

	case plan.KindGroupBy, plan.KindDistinct:
		key := lop.Key
		if lop.Kind() == plan.KindDistinct {
			key = plan.RecordKey()
		}
		shuffled, err := d.partitionByKey(ctx, in(0), key)
		if err != nil {
			return nil, err
		}
		return d.mapPartitions(ctx, op, newDataset(shuffled), nil)

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
		return d.mapPartitions(ctx, op, newDataset(shuffled), nil)

	case plan.KindReduce:
		partials, err := d.mapPartitions(ctx, op, in(0), nil)
		if err != nil {
			return nil, err
		}
		final, err := onDriver(partials.parts, 1)
		if err != nil {
			return nil, err
		}
		return newDataset([][]data.Record{final}), nil

	case plan.KindSort:
		// Global sort: per-partition sort stage, then a merge modelled
		// on the driver, range-split back into partitions. The full
		// volume crosses the wire, counted by the sort's tasks.
		ds := in(0)
		sorted := make([][]data.Record, len(ds.parts))
		sizes := make([]int64, len(ds.parts))
		err := d.fused(ctx, ds, true, func(i int) error {
			recs, size, err := ds.chain.Records(ds.parts[i], true)
			if err == nil {
				sorted[i], err = algo.Exec(op, recs, nil)
			}
			sizes[i] = size
			return err
		})
		if err != nil {
			return nil, err
		}
		var bytes int64
		for _, n := range sizes {
			bytes += n
		}
		d.shuffle(bytes)
		merged, err := onDriver(sorted, max(1, d.cfg.Slots()))
		if err != nil {
			return nil, err
		}
		return &dataset{parts: splitEven(merged, d.cfg.tunedPartitions(int64(len(merged)))), bytes: bytes}, nil

	case plan.KindUnion:
		l, r := in(0), in(1)
		out := make([][]data.Record, 0, len(l.parts)+len(r.parts))
		out = append(out, l.parts...)
		out = append(out, r.parts...)
		return newDataset(out), nil

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
		return newDataset(out), nil

	case plan.KindThetaJoin, plan.KindCartesian:
		// Broadcast the right side to every worker, then join each
		// left partition against the full right side.
		r, err := d.materialise(ctx, in(1))
		if err != nil {
			return nil, err
		}
		d.broadcast(r.size())
		return d.mapPartitions(ctx, op, in(0), flatten(r.parts))

	case plan.KindCount:
		d.driver(10 * time.Microsecond)
		return newDataset([][]data.Record{{data.NewRecord(data.Int(int64(rowCount(in(0).parts))))}}), nil

	case plan.KindSample:
		var out []data.Record
		for _, p := range in(0).parts {
			for _, r := range p {
				if len(out) >= lop.N {
					break
				}
				out = append(out, r)
			}
		}
		d.driver(time.Duration(len(out)) * 50 * time.Nanosecond)
		return newDataset([][]data.Record{out}), nil

	case plan.KindSink:
		return in(0), nil
	}
	return nil, fmt.Errorf("sparksim: %s must be driven by the executor", lop.Kind())
}
