package channel_test

import (
	"testing"

	"rheem"
	"rheem/internal/core/channel"
	"rheem/internal/data"
)

// TestConvertersCarryBytes drives every conversion between the formats a
// context's registry connects — so every edge rheem.NewContext registers —
// over scalar, string, vector and empty inputs. A converter keeps its
// input's Records and Bytes, and they are what the records it produced
// add up to: carrying the number cannot make it wrong.
func TestConvertersCarryBytes(t *testing.T) {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	reg := ctx.Registry().Channels()
	inputs := map[string][]data.Record{
		"scalar": {
			data.NewRecord(data.Int(1), data.Float(2.5), data.Bool(true)),
			data.NewRecord(data.Null(), data.Float(-1), data.Bool(false)),
		},
		"string": {
			data.NewRecord(data.Str("alpha"), data.Int(1)),
			data.NewRecord(data.Str(""), data.Int(2)),
			data.NewRecord(data.Null(), data.Int(3)),
		},
		"vector": {
			data.NewRecord(data.Vec([]float64{1, 2, 3}), data.Str("v")),
			data.NewRecord(data.Vec(nil), data.Str("w")),
		},
		"empty": {},
	}
	// The edges the three platforms and the batch hub register, each of
	// which must be the one-step route between its ends.
	direct := map[[2]channel.Format]bool{
		{channel.Collection, channel.Batch}: true, {channel.Batch, channel.Collection}: true,
		{channel.Collection, channel.Partitioned}: true, {channel.Partitioned, channel.Collection}: true,
		{channel.Collection, channel.Table}: true, {channel.Table, channel.Collection}: true,
		{channel.Table, channel.Batch}: true, {channel.Batch, channel.Table}: true,
	}
	formats := reg.Formats()
	if len(formats) != 4 {
		t.Fatalf("the registry connects %v; the edges listed here are of four formats", formats)
	}
	// records reads what a channel holds, whatever its metadata says:
	// converted to a collection, the payload is the records themselves.
	records := func(ch *channel.Channel) []data.Record {
		t.Helper()
		coll, _, _, err := reg.Convert(ch, channel.Collection)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := coll.AsCollection()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	seen := 0
	for name, recs := range inputs {
		want := data.TotalBytes(recs)
		for _, from := range formats {
			in, _, _, err := reg.Convert(channel.NewCollection(recs), from)
			if err != nil {
				t.Fatalf("%s: to %s: %v", name, from, err)
			}
			for _, to := range formats {
				if to == from {
					continue
				}
				out, _, steps, err := reg.Convert(in, to)
				if err != nil {
					t.Fatalf("%s: %s → %s: %v", name, from, to, err)
				}
				if direct[[2]channel.Format{from, to}] {
					if steps != 1 {
						t.Errorf("%s → %s took %d steps, want its own edge", from, to, steps)
					}
					seen++
				}
				got := records(out)
				if out.Bytes != in.Bytes || in.Bytes != want || data.TotalBytes(got) != want {
					t.Errorf("%s: %s → %s: in.Bytes %d, out.Bytes %d, out's records %d bytes; want %d",
						name, from, to, in.Bytes, out.Bytes, data.TotalBytes(got), want)
				}
				if out.Records != int64(len(recs)) || len(got) != len(recs) {
					t.Errorf("%s: %s → %s: Records %d over %d records, want %d", name, from, to, out.Records, len(got), len(recs))
				}
				for i := range got {
					if !data.EqualRecords(got[i], recs[i]) {
						t.Fatalf("%s: %s → %s changed record %d: %v, want %v", name, from, to, i, got[i], recs[i])
					}
				}
			}
		}
	}
	if seen != len(direct)*len(inputs) {
		t.Errorf("drove %d edge conversions, want %d", seen, len(direct)*len(inputs))
	}
}
