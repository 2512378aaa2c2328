package sparksim

import (
	"context"
	"testing"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

func intRecords(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = data.NewRecord(data.Int(int64(i)))
	}
	return out
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{}).cfg
	if c.Workers != 4 || c.SlotsPerWorker != 2 || c.Partitions != 8 {
		t.Errorf("defaults = %+v", c)
	}
	if c.Slots() != 8 {
		t.Errorf("slots = %d", c.Slots())
	}
	if c.JobOverhead != 50*time.Millisecond {
		t.Errorf("job overhead = %v", c.JobOverhead)
	}
}

func TestSplitEvenAndFlatten(t *testing.T) {
	recs := intRecords(10)
	parts := splitEven(recs, 3)
	if len(parts) != 3 {
		t.Fatalf("%d partitions", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 10 {
		t.Errorf("lost records: %d", total)
	}
	back := flatten(parts)
	if len(back) != 10 {
		t.Errorf("flatten lost records")
	}
	for i := range recs {
		if !data.EqualRecords(back[i], recs[i]) {
			t.Errorf("order changed at %d", i)
		}
	}
	// Degenerate cases.
	if got := splitEven(nil, 4); len(got) != 4 {
		t.Error("empty split wrong")
	}
	if got := splitEven(recs, 0); len(got) != 1 {
		t.Error("n=0 should clamp to 1")
	}
	if got := splitEven(recs, 100); len(flatten(got)) != 10 {
		t.Error("over-partitioning lost records")
	}
}

func TestConvertersRoundTrip(t *testing.T) {
	p := New(Config{Partitions: 4})
	reg := channel.NewRegistry()
	p.RegisterConverters(reg)
	in := channel.NewCollection(intRecords(17))
	part, _, _, err := reg.Convert(in, channel.Partitioned)
	if err != nil {
		t.Fatal(err)
	}
	if part.Records != 17 {
		t.Errorf("records metadata = %d", part.Records)
	}
	parts, err := partsOf(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Errorf("%d partitions", len(parts))
	}
	back, _, _, err := reg.Convert(part, channel.Collection)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := back.AsCollection()
	if len(recs) != 17 {
		t.Errorf("round trip lost records: %d", len(recs))
	}
}

func TestPartsOfErrors(t *testing.T) {
	if _, err := partsOf(channel.NewCollection(nil)); err == nil {
		t.Error("collection accepted as partitioned")
	}
	if _, err := partsOf(&channel.Channel{Format: channel.Partitioned, Payload: 3}); err == nil {
		t.Error("corrupt payload accepted")
	}
}

// runAtom runs a one-plan atom on the platform directly, under ctx, and
// returns its one exit: the sink's channel.
func runAtom(ctx context.Context, p *Platform, build func(b *plan.Builder)) (*channel.Channel, engine.Metrics, error) {
	b := plan.NewBuilder("t")
	build(b)
	lp, err := b.Build()
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	pp, err := physical.FromLogical(lp)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	atom := &engine.TaskAtom{ID: 0, Kind: engine.AtomCompute, Platform: ID,
		Ops: pp.Ops, Exits: []*physical.Operator{pp.SinkOp}}
	exits, m, err := p.ExecuteAtom(ctx, atom, engine.AtomInputs{})
	if err != nil {
		return nil, m, err
	}
	return exits[0], m, nil
}

// runAtomOn is runAtom for an atom that must succeed.
func runAtomOn(t *testing.T, p *Platform, build func(b *plan.Builder)) (*channel.Channel, engine.Metrics) {
	t.Helper()
	sink, m, err := runAtom(context.Background(), p, build)
	if err != nil {
		t.Fatal(err)
	}
	return sink, m
}

func TestVirtualClockChargesJobOverhead(t *testing.T) {
	p := New(Config{JobOverhead: 500 * time.Millisecond, TaskOverhead: time.Microsecond})
	_, m := runAtomOn(t, p, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(intRecords(10)))
		b.Collect(s)
	})
	if m.Sim < 500*time.Millisecond {
		t.Errorf("sim %v missing job overhead", m.Sim)
	}
	if m.Jobs != 1 {
		t.Errorf("jobs = %d", m.Jobs)
	}
	// Wall time is real and must be far below simulated time here.
	if m.Wall > 100*time.Millisecond {
		t.Errorf("wall %v suspiciously high", m.Wall)
	}
}

func TestShuffleAccountedOnWideOps(t *testing.T) {
	p := New(Config{JobOverhead: time.Millisecond})
	sink, m := runAtomOn(t, p, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(datagen.ZipfInts(1000, 50, 1)))
		ones := b.Map(s, func(r data.Record) (data.Record, error) {
			return r.Append(data.Int(1)), nil
		})
		g := b.ReduceByKey(ones, plan.FieldKey(0), plan.SumField(1))
		b.Collect(g)
	})
	if m.ShuffledBytes == 0 {
		t.Error("wide operator moved no shuffle bytes")
	}
	parts, err := partsOf(sink)
	if err != nil {
		t.Fatal(err)
	}
	recs := flatten(parts)
	if len(recs) == 0 || len(recs) > 50 {
		t.Errorf("reduce produced %d records", len(recs))
	}
}

func TestNarrowOpsDoNotShuffle(t *testing.T) {
	p := New(Config{JobOverhead: time.Millisecond})
	_, m := runAtomOn(t, p, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(intRecords(1000)))
		f := b.Filter(s, func(r data.Record) (bool, error) { return r.Field(0).Int()%2 == 0, nil })
		mm := b.Map(f, plan.Identity())
		b.Collect(mm)
	})
	if m.ShuffledBytes != 0 {
		t.Errorf("narrow pipeline shuffled %d bytes", m.ShuffledBytes)
	}
}

func TestBroadcastChargedOnThetaJoin(t *testing.T) {
	p := New(Config{JobOverhead: time.Millisecond, Workers: 3})
	_, m := runAtomOn(t, p, func(b *plan.Builder) {
		l := b.Source("l", plan.Collection(intRecords(50)))
		r := b.Source("r", plan.Collection(intRecords(20)))
		tj := b.ThetaJoin(l, r, func(a, c data.Record) (bool, error) {
			return a.Field(0).Int() < c.Field(0).Int(), nil
		})
		b.Collect(tj)
	})
	// Broadcast volume = right bytes × workers.
	rightBytes := data.TotalBytes(intRecords(20))
	if m.ShuffledBytes != rightBytes*3 {
		t.Errorf("broadcast bytes = %d, want %d", m.ShuffledBytes, rightBytes*3)
	}
}

func TestSortProducesGlobalOrder(t *testing.T) {
	p := New(Config{JobOverhead: time.Millisecond, Partitions: 4})
	sink, _ := runAtomOn(t, p, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(datagen.ZipfInts(500, 100, 2)))
		so := b.Sort(s, plan.FieldKey(0), false)
		b.Collect(so)
	})
	parts, err := partsOf(sink)
	if err != nil {
		t.Fatal(err)
	}
	flat := flatten(parts)
	for i := 1; i < len(flat); i++ {
		if flat[i-1].Field(0).Int() > flat[i].Field(0).Int() {
			t.Fatalf("global order violated at %d", i)
		}
	}
}

func TestStageWaveModel(t *testing.T) {
	// 8 tasks on 4 slots = 2 waves; each wave costs its max task plus
	// the task overhead.
	d := &datasetOps{cfg: Config{Workers: 2, SlotsPerWorker: 2, TaskOverhead: 10 * time.Millisecond}}
	times := []time.Duration{
		1 * time.Millisecond, 9 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, // wave 1: max 9ms
		5 * time.Millisecond, 1 * time.Millisecond, 4 * time.Millisecond, 2 * time.Millisecond, // wave 2: max 5ms
	}
	d.stage(times)
	want := 9*time.Millisecond + 10*time.Millisecond + 5*time.Millisecond + 10*time.Millisecond
	if d.clock != want {
		t.Errorf("stage clock = %v, want %v", d.clock, want)
	}
}

func TestReduceByKeyMapSideCombineLimitsShuffle(t *testing.T) {
	// With heavy key duplication, the combined shuffle volume must be
	// far below the raw input volume.
	recs := datagen.ZipfInts(10000, 4, 3) // only 4 distinct keys
	p := New(Config{JobOverhead: time.Millisecond})
	_, m := runAtomOn(t, p, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(recs))
		ones := b.Map(s, func(r data.Record) (data.Record, error) {
			return r.Append(data.Int(1)), nil
		})
		g := b.ReduceByKey(ones, plan.FieldKey(0), plan.SumField(1))
		b.Collect(g)
	})
	rawBytes := data.TotalBytes(recs)
	if m.ShuffledBytes*10 > rawBytes {
		t.Errorf("combine ineffective: shuffled %d of %d raw bytes", m.ShuffledBytes, rawBytes)
	}
}

func TestProfileAndFormat(t *testing.T) {
	p := New(Config{})
	if p.NativeFormat() != channel.Partitioned {
		t.Error("native format wrong")
	}
	if p.ID() != ID {
		t.Error("id wrong")
	}
}
