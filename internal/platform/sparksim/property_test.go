package sparksim

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// partGen generates random int-keyed records for partitioning
// properties.
type partGen struct{ Keys []int16 }

func (partGen) Generate(r *rand.Rand, _ int) reflect.Value {
	keys := make([]int16, r.Intn(200))
	for i := range keys {
		keys[i] = int16(r.Intn(64))
	}
	return reflect.ValueOf(partGen{Keys: keys})
}

func toRecords(keys []int16) []data.Record {
	out := make([]data.Record, len(keys))
	for i, k := range keys {
		out[i] = data.NewRecord(data.Int(int64(k)), data.Int(int64(i)))
	}
	return out
}

func sortedIDs(parts [][]data.Record) []int64 {
	var out []int64
	for _, p := range parts {
		for _, r := range p {
			out = append(out, r.Field(1).Int())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestQuickShufflePreservesRecords: partitionByKey is a permutation —
// no record is lost or duplicated, whatever the key skew.
func TestQuickShufflePreservesRecords(t *testing.T) {
	cfg := Config{Partitions: 7}
	cfg.defaults()
	f := func(g partGen) bool {
		recs := toRecords(g.Keys)
		d := &datasetOps{cfg: cfg}
		parts, err := d.partitionByKey(context.Background(), newDataset(splitEven(recs, 3)), plan.FieldKey(0))
		if err != nil {
			return false
		}
		ids := sortedIDs(parts)
		if len(ids) != len(recs) {
			return false
		}
		for i, id := range ids {
			if id != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickShuffleCoPartitions: equal keys always land in the same
// partition — the invariant co-partitioned joins rely on.
func TestQuickShuffleCoPartitions(t *testing.T) {
	cfg := Config{Partitions: 5}
	cfg.defaults()
	f := func(g partGen) bool {
		recs := toRecords(g.Keys)
		d := &datasetOps{cfg: cfg}
		parts, err := d.partitionByKey(context.Background(), newDataset(splitEven(recs, 4)), plan.FieldKey(0))
		if err != nil {
			return false
		}
		where := map[int64]int{}
		for pi, p := range parts {
			for _, r := range p {
				k := r.Field(0).Int()
				if prev, seen := where[k]; seen && prev != pi {
					return false
				}
				where[k] = pi
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitEvenPreservesOrder: parallelize keeps record order
// across the concatenated partitions, for any size and partition count.
func TestQuickSplitEvenPreservesOrder(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		recs := toRecords(make([]int16, int(n)))
		split := splitEven(recs, int(parts%16)+1)
		back := flatten(split)
		if len(back) != len(recs) {
			return false
		}
		for i := range back {
			if back[i].Field(1).Int() != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
