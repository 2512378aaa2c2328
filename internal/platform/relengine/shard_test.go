package relengine

import (
	"testing"

	"rheem/internal/core/channel"
	"rheem/internal/data"
)

func TestSplitNativeSlicesRows(t *testing.T) {
	tab := &Table{rows: people()}
	p := New()

	shards, err := p.SplitNative(tableChannel(tab), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("%d shards, want 2", len(shards))
	}
	orig := tab.rows
	var replay []data.Record
	for i, s := range shards {
		st, err := tableOf(s)
		if err != nil {
			t.Fatal(err)
		}
		rows := st.rows
		// Shard tables are zero-copy views of the source table's rows.
		if &rows[0] != &orig[len(replay)] {
			t.Errorf("shard %d does not alias the source rows", i)
		}
		replay = append(replay, rows...)
	}
	if len(replay) != len(orig) {
		t.Fatalf("shards replay %d rows of %d", len(replay), len(orig))
	}
	for i := range orig {
		if !data.EqualRecords(orig[i], replay[i]) {
			t.Fatalf("row %d reordered by split", i)
		}
	}
}

func TestSplitNativeDegenerateAndErrors(t *testing.T) {
	tab := &Table{rows: people()}
	p := New()

	ch := tableChannel(tab)
	shards, err := p.SplitNative(ch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0] != ch {
		t.Errorf("p=1 split = %d shards, want the original channel", len(shards))
	}
	// More shards than rows: clamp, never emit empty shard tables.
	shards, err = p.SplitNative(ch, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != tab.NumRows() {
		t.Errorf("%d shards for %d rows", len(shards), tab.NumRows())
	}
	if _, err := p.SplitNative(channel.NewCollection(nil), 2); err == nil {
		t.Error("SplitNative accepted a collection channel")
	}
}
