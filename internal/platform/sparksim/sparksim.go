// Package sparksim is a from-scratch simulator of a Spark-like
// distributed dataflow platform — the reproduction's substitute for the
// real Spark cluster of the paper's experiments (DESIGN.md §3).
//
// The simulator really executes every operator: datasets are hash- or
// range-partitioned [][]data.Record collections, wide operators really
// shuffle records between partitions, joins really co-partition, and
// broadcasts really replicate — so results are exact and testable. The
// partitioning, the shuffle and the clock are the simulator's own; what
// an operator computes on one partition's rows is algo.Exec's, the
// definition every platform shares. What is simulated is *time*: a
// virtual cluster clock models
//
//   - a fixed job-submission overhead per task atom execution
//     (Config.JobOverhead) — the dominant term for small inputs and the
//     cause of Figure 2's crossover;
//   - per-task dispatch overhead and slot-limited scheduling: each
//     stage's tasks run in waves of Workers×SlotsPerWorker, each wave
//     as slow as its slowest task (measured per-partition wall time
//     divided across simulated slots);
//   - shuffle and broadcast network time as bytes over bandwidth.
//
// Measured per-partition compute is real, and so is its parallelism on
// the host: a stage of at least morselRows rows runs its partitions on the
// atom's goroutine and the process's helpers (engine.Run, under the one
// budget javaengine's forcings share), each task timing itself. A run of
// Map, Filter and FlatMap operators is pipelined as on Spark: the stage
// that reads it runs it inside its own tasks, one fused pass a partition
// (algo.Chain), and the clock still charges each of them its waves' task
// overhead. The cluster — its slots, waves, dispatch, network and job
// overhead — is what the clock models. A UDF placed here may therefore be
// called concurrently from different partitions, as on Spark. See
// bench_test.go and EXPERIMENTS.md for the calibration used to regenerate
// the paper's figures.
package sparksim

import (
	"context"
	"fmt"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/data"
)

// ID is the platform identifier.
const ID engine.PlatformID = "spark"

// Config describes the simulated cluster.
type Config struct {
	Workers        int // default 4
	SlotsPerWorker int // default 2
	// Partitions is the default parallelism. Default Workers×Slots.
	Partitions int
	// JobOverhead is charged to simulated time once per atom execution
	// (job submission, DAG scheduling, task serialization). Default 50ms.
	JobOverhead time.Duration
	// TaskOverhead is charged per scheduling wave per stage. Default 1ms.
	TaskOverhead time.Duration
	// AutoTunePartitions enables the platform-layer optimization phase
	// of the paper (§4.3, "plugged-in platform-specific optimization
	// tools ... e.g. Starfish"): instead of always materialising the
	// static default parallelism, each parallelize/shuffle re-chooses
	// its partition count from the observed cardinality, aiming for
	// TargetRecordsPerTask records per task. Small inputs then pay for
	// fewer task dispatches.
	AutoTunePartitions bool
	// TargetRecordsPerTask is the auto-tuning goal. Default 10000.
	TargetRecordsPerTask int
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SlotsPerWorker <= 0 {
		c.SlotsPerWorker = 2
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Workers * c.SlotsPerWorker
	}
	if c.JobOverhead == 0 {
		c.JobOverhead = 50 * time.Millisecond
	}
	if c.TaskOverhead == 0 {
		c.TaskOverhead = time.Millisecond
	}
	if c.TargetRecordsPerTask <= 0 {
		c.TargetRecordsPerTask = 10_000
	}
}

// The simulated network, in bytes/second.
const (
	shuffleBandwidth   = 200 << 20 // aggregate shuffle throughput
	broadcastBandwidth = 500 << 20 // broadcast throughput
)

// tunedPartitions applies the platform-layer partition-count tuning
// for the given cardinality; without auto-tuning it returns the static
// default parallelism.
func (c Config) tunedPartitions(records int64) int {
	if !c.AutoTunePartitions {
		return c.Partitions
	}
	n := int((records + int64(c.TargetRecordsPerTask) - 1) / int64(c.TargetRecordsPerTask))
	if n < 1 {
		n = 1
	}
	if n > c.Partitions {
		n = c.Partitions
	}
	return n
}

// Slots returns the cluster's concurrent task capacity.
func (c Config) Slots() int { return c.Workers * c.SlotsPerWorker }

// Platform is the simulated Spark-like engine.
type Platform struct {
	cfg Config
}

// New returns a platform simulating the configured cluster.
func New(cfg Config) *Platform {
	cfg.defaults()
	return &Platform{cfg: cfg}
}

// ID implements engine.Platform.
func (p *Platform) ID() engine.PlatformID { return ID }

// NativeFormat implements engine.Platform.
func (p *Platform) NativeFormat() channel.Format { return channel.Partitioned }

// RegisterConverters implements engine.Platform: partitioned ↔
// collection, priced as cluster↔driver movement. Both edges re-slice
// their input's records, so they keep its Bytes.
func (p *Platform) RegisterConverters(reg *channel.Registry) {
	const perByte = 1e9 / shuffleBandwidth // ns per byte
	reg.Register(channel.Converter{
		From: channel.Collection, To: channel.Partitioned,
		Fixed: 2 * time.Millisecond, PerByteNS: perByte,
		Convert: func(ch *channel.Channel) (*channel.Channel, error) {
			recs, err := ch.AsCollection()
			if err != nil {
				return nil, err
			}
			return ch.Rewrap(channel.Partitioned, splitEven(recs, p.cfg.tunedPartitions(int64(len(recs))))), nil
		},
	})
	reg.Register(channel.Converter{
		From: channel.Partitioned, To: channel.Collection,
		Fixed: 2 * time.Millisecond, PerByteNS: perByte,
		Convert: func(ch *channel.Channel) (*channel.Channel, error) {
			parts, err := partsOf(ch)
			if err != nil {
				return nil, err
			}
			return ch.Rewrap(channel.Collection, flatten(parts)), nil
		},
	})
}

// partsOf extracts the partition payload of a Partitioned channel.
func partsOf(ch *channel.Channel) ([][]data.Record, error) {
	if ch.Format != channel.Partitioned {
		return nil, fmt.Errorf("sparksim: channel format %s is not partitioned", ch.Format)
	}
	parts, ok := ch.Payload.([][]data.Record)
	if !ok {
		return nil, fmt.Errorf("sparksim: partitioned channel holds %T", ch.Payload)
	}
	return parts, nil
}

func flatten(parts [][]data.Record) []data.Record {
	out := make([]data.Record, 0, rowCount(parts))
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// splitEven distributes records round-robin-in-chunks into n partitions.
func splitEven(recs []data.Record, n int) [][]data.Record {
	if n < 1 {
		n = 1
	}
	parts := make([][]data.Record, n)
	chunk := (len(recs) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * chunk
		if lo >= len(recs) {
			break
		}
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		parts[i] = recs[lo:hi]
	}
	return parts
}

// ExecuteAtom implements engine.Platform: one atom execution is one
// simulated job.
func (p *Platform) ExecuteAtom(ctx context.Context, atom *engine.TaskAtom, inputs engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	start := time.Now()
	d := &datasetOps{cfg: p.cfg, atom: atom}
	exits, err := engine.RunAtom(ctx, d, atom, inputs)
	m := engine.Metrics{
		Wall:          time.Since(start),
		Sim:           p.cfg.JobOverhead + d.clock,
		Jobs:          1,
		InRecords:     d.inRecords,
		OutRecords:    d.outRecords,
		ShuffledBytes: d.shuffled,
	}
	if err != nil {
		return nil, m, err
	}
	return exits, m, nil
}
