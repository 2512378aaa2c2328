package core

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/algo"
	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// chainRows crosses three 4 096-row windows (javaengine) and makes every
// sparksim stage fan out.
const chainRows = 3*4096 + 17

// chainRecords are (id, name, weight) rows: names of varying length, so
// bytes differ per record.
func chainRecords(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = data.NewRecord(data.Int(int64(i)), data.Str(strings.Repeat("r", i%11)), data.Float(float64(i)*0.25))
	}
	return out
}

// narrowChain adds Map → Filter → FlatMap (0–3 outputs a record) → Map
// over in.
func narrowChain(b *plan.Builder, in *plan.Operator) *plan.Operator {
	m := b.Map(in, func(r data.Record) (data.Record, error) {
		return data.NewRecord(r.Field(0), r.Field(1), data.Float(r.Field(2).Float()*3)), nil
	})
	f := b.Filter(m, func(r data.Record) (bool, error) { return r.Field(0).Int()%5 != 2, nil })
	fm := b.FlatMap(f, func(r data.Record) ([]data.Record, error) {
		out := make([]data.Record, r.Field(0).Int()%4)
		for j := range out {
			out[j] = r.Append(data.Int(int64(j)))
		}
		return out, nil
	})
	return b.Map(fm, func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int()%97), r.Field(1), r.Field(3)), nil
	})
}

// chainSum adds the chain's last field.
func chainSum(a, b data.Record) (data.Record, error) {
	return data.NewRecord(a.Field(0), a.Field(1), data.Int(a.Field(2).Int()+b.Field(2).Int())), nil
}

// chainConsumers are what reads the chain: nothing (the chain's last Map
// is the exit) or one of the operators whose stage can run it.
var chainConsumers = []struct {
	name  string
	build func(b *plan.Builder, chain *plan.Operator, right []data.Record) *plan.Operator
}{
	{"exit", func(_ *plan.Builder, c *plan.Operator, _ []data.Record) *plan.Operator { return c }},
	{"reducebykey", func(b *plan.Builder, c *plan.Operator, _ []data.Record) *plan.Operator {
		return b.ReduceByKey(c, modKey(7), chainSum)
	}},
	{"reduce", func(b *plan.Builder, c *plan.Operator, _ []data.Record) *plan.Operator { return b.Reduce(c, chainSum) }},
	{"groupby", func(b *plan.Builder, c *plan.Operator, _ []data.Record) *plan.Operator {
		return b.GroupBy(c, modKey(5), func(k data.Value, g []data.Record) ([]data.Record, error) {
			sum := int64(0)
			for _, r := range g {
				sum += r.Field(2).Int()
			}
			return []data.Record{data.NewRecord(k, data.Int(int64(len(g))), data.Int(sum))}, nil
		})
	}},
	{"distinct", func(b *plan.Builder, c *plan.Operator, _ []data.Record) *plan.Operator { return b.Distinct(c) }},
	{"join", func(b *plan.Builder, c *plan.Operator, right []data.Record) *plan.Operator {
		return b.Join(c, b.Source("r", plan.Collection(right)), modKey(13), plan.FieldKey(0))
	}},
	{"sort", func(b *plan.Builder, c *plan.Operator, _ []data.Record) *plan.Operator {
		return b.Sort(c, plan.FieldKey(1), true)
	}},
	{"count", func(b *plan.Builder, c *plan.Operator, _ []data.Record) *plan.Operator { return b.Count(c) }},
}

// chainRun is what one atom, or a series of one-operator atoms, made.
type chainRun struct {
	recs          []data.Record
	in, out       int64
	shuffled      int64
	taskOverheads int64 // sparksim's TaskOverhead charges
}

// chainOverhead is sparksim's TaskOverhead in these tests: so long that
// an atom's simulated time, divided by it, counts the charges.
const chainOverhead = 1000 * time.Hour

// TestNarrowChainsMatchSerial runs a Map → Filter → FlatMap → Map chain
// over three windows and then some, on javaengine and sparksim at
// GOMAXPROCS 1 and 4, into each consumer, as one atom — where the chain
// is fused into one pass per window or per partition — and as a series
// of one-operator atoms, where every operator's output is materialised
// at an atom boundary. The records, byte for byte and in order, the
// records in and out, the shuffled bytes and sparksim's TaskOverhead
// charges must be the same; every exit's Bytes must be its records'; and
// on javaengine the records must be algo.Exec's, applied one operator at
// a time over the whole input.
func TestNarrowChainsMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	recs, right := chainRecords(chainRows), confRecords(13, 0)
	platforms := []engine.Platform{
		javaengine.New(),
		sparksim.New(sparksim.Config{JobOverhead: time.Nanosecond, TaskOverhead: chainOverhead}),
	}
	for _, c := range chainConsumers {
		b := plan.NewBuilder("chain-" + c.name)
		b.Collect(c.build(b, narrowChain(b, b.Source("s", plan.Collection(recs))), right))
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		var ops []*physical.Operator // the chain and its consumer
		for _, op := range pp.Ops {
			if k := op.Kind(); k != plan.KindSource && k != plan.KindSink {
				ops = append(ops, op)
			}
		}
		var want []data.Record
		for _, p := range platforms {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				fused := runChainAtoms(t, p, ops, true)
				serial := runChainAtoms(t, p, ops, false)
				where := c.name + " on " + string(p.ID())
				if len(fused.recs) == 0 {
					t.Fatalf("%s: no records", where)
				}
				if !bytes.Equal(encodeRecords(t, fused.recs), encodeRecords(t, serial.recs)) {
					t.Errorf("%s at GOMAXPROCS %d: the fused chain's %d records differ from the %d of one operator an atom",
						where, procs, len(fused.recs), len(serial.recs))
				}
				if fused.in != serial.in || fused.out != serial.out || fused.shuffled != serial.shuffled {
					t.Errorf("%s at GOMAXPROCS %d: in %d, out %d, shuffled %d fused; %d, %d, %d one operator an atom",
						where, procs, fused.in, fused.out, fused.shuffled, serial.in, serial.out, serial.shuffled)
				}
				if fused.taskOverheads != serial.taskOverheads {
					t.Errorf("%s at GOMAXPROCS %d: %d TaskOverhead charges fused, %d one operator an atom",
						where, procs, fused.taskOverheads, serial.taskOverheads)
				}
				if p.ID() != javaengine.ID {
					continue
				}
				if want == nil {
					want = execEach(t, ops, recs, right)
				}
				if !bytes.Equal(encodeRecords(t, fused.recs), encodeRecords(t, want)) {
					t.Errorf("%s at GOMAXPROCS %d: %d records, algo.Exec one operator at a time makes %d, or in another order",
						where, procs, len(fused.recs), len(want))
				}
			}
		}
	}
}

// runChainAtoms runs ops on p as one atom (fused) or as one atom an
// operator, the sources' records arriving as external channels in p's
// format.
func runChainAtoms(t *testing.T, p engine.Platform, ops []*physical.Operator, fused bool) chainRun {
	t.Helper()
	var run chainRun
	groups := [][]*physical.Operator{ops}
	if !fused {
		groups = groups[:0]
		for _, op := range ops {
			groups = append(groups, []*physical.Operator{op})
		}
	}
	made := map[int]*channel.Channel{} // by operator id: the exits so far
	for i, g := range groups {
		atom := &engine.TaskAtom{ID: i, Kind: engine.AtomCompute, Platform: p.ID(), Ops: g, Exits: g[len(g)-1:]}
		inputs := engine.NewAtomInputs(atom)
		for pos, op := range g {
			for slot, in := range op.Inputs {
				switch {
				case in.Kind() == plan.KindSource:
					recs, err := in.Logical.Source()
					if err != nil {
						t.Fatal(err)
					}
					inputs[pos][slot] = sourceChannel(p, recs)
					run.in += int64(len(recs))
				case made[in.ID] != nil:
					inputs[pos][slot] = made[in.ID]
				}
			}
		}
		exits, m, err := p.ExecuteAtom(context.Background(), atom, inputs)
		if err != nil {
			t.Fatalf("%s: %v", atom, err)
		}
		run.shuffled += m.ShuffledBytes
		run.taskOverheads += int64(m.Sim / chainOverhead)
		ch := exits[0] // the atom's one exit, g's last operator
		made[g[len(g)-1].ID] = ch
		recs := channelRecords(t, ch)
		if got := data.TotalBytes(recs); ch.Bytes != got {
			t.Errorf("%s: the exit's Bytes are %d, its records' %d", atom, ch.Bytes, got)
		}
		if i == len(groups)-1 {
			run.recs, run.out = recs, m.OutRecords
		}
	}
	return run
}

// sourceChannel is recs in p's native format: one collection, or eight
// uneven partitions.
func sourceChannel(p engine.Platform, recs []data.Record) *channel.Channel {
	if p.NativeFormat() != channel.Partitioned {
		return channel.NewCollection(recs)
	}
	var parts [][]data.Record
	for lo, k := 0, 1; lo < len(recs); k++ {
		hi := min(len(recs), lo+k*len(recs)/36+1)
		parts = append(parts, recs[lo:hi])
		lo = hi
	}
	return &channel.Channel{Format: channel.Partitioned, Payload: parts, Records: int64(len(recs)), Bytes: data.TotalBytes(recs)}
}

// channelRecords flattens an exit's records.
func channelRecords(t *testing.T, ch *channel.Channel) []data.Record {
	t.Helper()
	if parts, ok := ch.Payload.([][]data.Record); ok {
		var out []data.Record
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	recs, err := ch.AsCollection()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// execEach applies algo.Exec to the whole input one operator at a time.
func execEach(t *testing.T, ops []*physical.Operator, recs, right []data.Record) []data.Record {
	t.Helper()
	for _, op := range ops {
		var r []data.Record
		if len(op.Inputs) > 1 {
			r = right
		}
		var err error
		if recs, err = algo.Exec(op, recs, r); err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
	}
	return recs
}

// encodeRecords is the records' binary encoding, in their order.
func encodeRecords(t *testing.T, recs []data.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
