package channel

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rheem/internal/data"
)

// The converters below move real records between synthetic formats the
// way platform converters do (re-chunking, re-ordering, serialising),
// so a random walk over the graph exercises genuine payload
// transformations, not tagged strings.

// chunked is a Partitioned-style [][]data.Record payload.
func chunkRecs(recs []data.Record, chunk int) [][]data.Record {
	var out [][]data.Record
	for lo := 0; lo < len(recs); lo += chunk {
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		out = append(out, recs[lo:hi])
	}
	return out
}

// propRegistry wires a conversion graph over four record-carrying
// formats: collection ↔ partitioned (chunked), collection ↔ dfs
// (binary-serialised bytes), partitioned → table (flattened in reverse
// chunk order — order-destroying but multiset-preserving, like a
// shuffle), table → collection.
func propRegistry() *Registry {
	r := NewRegistry()
	asRecs := func(c *Channel) []data.Record {
		recs, _ := c.Payload.([]data.Record)
		return recs
	}
	r.Register(Converter{From: Collection, To: Partitioned, Fixed: 1,
		Convert: func(c *Channel) (*Channel, error) {
			return &Channel{Format: Partitioned, Payload: chunkRecs(asRecs(c), 3),
				Records: c.Records, Bytes: c.Bytes}, nil
		}})
	r.Register(Converter{From: Partitioned, To: Collection, Fixed: 1,
		Convert: func(c *Channel) (*Channel, error) {
			parts, _ := c.Payload.([][]data.Record)
			var flat []data.Record
			for _, p := range parts {
				flat = append(flat, p...)
			}
			return NewCollection(flat), nil
		}})
	r.Register(Converter{From: Collection, To: DFSFile, Fixed: 1,
		Convert: func(c *Channel) (*Channel, error) {
			var buf bytes.Buffer
			if _, err := data.WriteBinary(&buf, asRecs(c)); err != nil {
				return nil, err
			}
			return &Channel{Format: DFSFile, Payload: buf.Bytes(),
				Records: c.Records, Bytes: int64(buf.Len())}, nil
		}})
	r.Register(Converter{From: DFSFile, To: Collection, Fixed: 1,
		Convert: func(c *Channel) (*Channel, error) {
			raw, _ := c.Payload.([]byte)
			recs, err := data.ReadBinary(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			return NewCollection(recs), nil
		}})
	r.Register(Converter{From: Partitioned, To: Table, Fixed: 1,
		Convert: func(c *Channel) (*Channel, error) {
			parts, _ := c.Payload.([][]data.Record)
			var flat []data.Record
			for i := len(parts) - 1; i >= 0; i-- {
				flat = append(flat, parts[i]...)
			}
			return &Channel{Format: Table, Payload: flat,
				Records: c.Records, Bytes: c.Bytes}, nil
		}})
	r.Register(Converter{From: Table, To: Collection, Fixed: 1,
		Convert: func(c *Channel) (*Channel, error) {
			return NewCollection(asRecs(c)), nil
		}})
	return r
}

// recordMultiset canonicalises records as their sorted individual
// binary encodings, so order-destroying conversions compare equal.
func recordMultiset(t *testing.T, recs []data.Record) []string {
	t.Helper()
	out := make([]string, len(recs))
	for i, r := range recs {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, []data.Record{r}); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.String()
	}
	sort.Strings(out)
	return out
}

func randomRecords(rng *rand.Rand, n int) []data.Record {
	recs := make([]data.Record, n)
	for i := range recs {
		// Occasional nulls so the batch edges exercise their validity
		// bitmaps, not just the dense typed fast path.
		f0, f2 := data.Int(rng.Int63n(1000)-500), data.Float(rng.NormFloat64())
		if rng.Intn(8) == 0 {
			f0 = data.Null()
		}
		if rng.Intn(8) == 0 {
			f2 = data.Null()
		}
		recs[i] = data.NewRecord(f0, data.Str(fmt.Sprintf("s%x", rng.Uint32())), f2)
	}
	return recs
}

// TestConversionChainsPreserveMultiset drives random conversion walks
// through the registry and checks the invariant every converter must
// uphold: whatever the route — re-chunking, serialisation round trips,
// order-destroying flattens — the multiset of data quanta that comes
// out is the multiset that went in, and the cardinality metadata stays
// truthful. Seeded, so a failure reproduces.
func TestConversionChainsPreserveMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	reg := propRegistry()
	// Walk the real columnar edges too — the production converters, not
	// test doubles — so batch hops interleave with the synthetic routes.
	RegisterBatchConverters(reg)
	formats := []Format{Collection, Partitioned, Table, DFSFile, Batch}
	for trial := 0; trial < 100; trial++ {
		recs := randomRecords(rng, 1+rng.Intn(64))
		want := recordMultiset(t, recs)
		ch := NewCollection(recs)
		steps := 1 + rng.Intn(8)
		var route []Format
		for s := 0; s < steps; s++ {
			to := formats[rng.Intn(len(formats))]
			route = append(route, to)
			next, _, _, err := reg.Convert(ch, to)
			if err != nil {
				t.Fatalf("trial %d route %v: %v", trial, route, err)
			}
			if next.Records != int64(len(recs)) {
				t.Fatalf("trial %d route %v: cardinality %d, want %d",
					trial, route, next.Records, len(recs))
			}
			ch = next
		}
		final, _, _, err := reg.Convert(ch, Collection)
		if err != nil {
			t.Fatalf("trial %d route %v back to collection: %v", trial, route, err)
		}
		out, err := final.AsCollection()
		if err != nil {
			t.Fatal(err)
		}
		got := recordMultiset(t, out)
		if len(got) != len(want) {
			t.Fatalf("trial %d route %v: %d records out, %d in", trial, route, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d route %v: multiset diverged at %d", trial, route, i)
			}
		}
	}
}
