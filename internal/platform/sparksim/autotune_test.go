package sparksim

import (
	"context"
	"testing"
	"time"

	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

func TestTunedPartitions(t *testing.T) {
	cfg := Config{Partitions: 16, AutoTunePartitions: true, TargetRecordsPerTask: 1000}
	cfg.defaults()
	cases := []struct {
		records int64
		want    int
	}{
		{0, 1}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2}, {8000, 8}, {1_000_000, 16},
	}
	for _, c := range cases {
		if got := cfg.tunedPartitions(c.records); got != c.want {
			t.Errorf("tunedPartitions(%d) = %d, want %d", c.records, got, c.want)
		}
	}
	// Disabled: always the static default.
	static := Config{Partitions: 16}
	static.defaults()
	if static.tunedPartitions(1) != 16 {
		t.Error("static config tuned anyway")
	}
}

func TestAutoTuneReducesSimTimeOnTinyInput(t *testing.T) {
	build := func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(datagen.ZipfInts(200, 10, 1)))
		ones := b.Map(s, func(r data.Record) (data.Record, error) {
			return r.Append(data.Int(1)), nil
		})
		g := b.ReduceByKey(ones, plan.FieldKey(0), plan.SumField(1))
		b.Collect(g)
	}
	base := Config{Partitions: 16, JobOverhead: time.Millisecond, TaskOverhead: 2 * time.Millisecond}
	tuned := base
	tuned.AutoTunePartitions = true
	tuned.TargetRecordsPerTask = 1000

	_, mBase := runAtomOn(t, New(base), build)
	sink, mTuned := runAtomOn(t, New(tuned), build)

	if mTuned.Sim >= mBase.Sim {
		t.Errorf("auto-tune did not help: tuned %v vs static %v", mTuned.Sim, mBase.Sim)
	}
	// Results identical regardless of tuning.
	parts, err := partsOf(sink)
	if err != nil {
		t.Fatal(err)
	}
	recs := flatten(parts)
	var total int64
	for _, r := range recs {
		total += r.Field(1).Int()
	}
	if total != 200 || len(recs) != 10 {
		t.Errorf("tuned results wrong: %d keys, %d total", len(recs), total)
	}
}

func TestAutoTuneKeepsWidePartitioningForBigInput(t *testing.T) {
	cfg := Config{Partitions: 8, AutoTunePartitions: true, TargetRecordsPerTask: 100}
	cfg.defaults()
	d := &datasetOps{cfg: cfg}
	parts, err := d.partitionByKey(context.Background(), newDataset(splitEven(datagen.ZipfInts(5000, 500, 2), 8)), plan.FieldKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 8 {
		t.Errorf("big input shuffled into %d partitions, want 8", len(parts))
	}
}
