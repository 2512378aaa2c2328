package javaengine

import (
	"testing"

	"rheem/internal/core/channel"
	"rheem/internal/data"
)

func TestSplitNativeIsZeroCopyPartition(t *testing.T) {
	// The java engine's native format is the hub Collection, so its
	// native split is exactly channel.Partition: contiguous slice views.
	p := New()
	recs := make([]data.Record, 10)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)))
	}
	ch := channel.NewCollection(recs)
	shards, err := p.SplitNative(ch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("%d shards, want 3", len(shards))
	}
	var total int64
	for i, s := range shards {
		sr, err := s.AsCollection()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && &sr[0] != &recs[0] {
			t.Error("shard 0 does not alias the original records")
		}
		total += s.Records
	}
	if total != ch.Records {
		t.Errorf("shards hold %d records, want %d", total, ch.Records)
	}
}
