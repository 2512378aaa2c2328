package channel

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"rheem/internal/data"
)

func TestNewCollectionAndAsCollection(t *testing.T) {
	recs := []data.Record{data.NewRecord(data.Int(1)), data.NewRecord(data.Int(2))}
	ch := NewCollection(recs)
	if ch.Format != Collection || ch.Records != 2 {
		t.Errorf("channel = %+v", ch)
	}
	if ch.Bytes <= 0 {
		t.Error("bytes not accounted")
	}
	got, err := ch.AsCollection()
	if err != nil || len(got) != 2 {
		t.Errorf("AsCollection = %v, %v", got, err)
	}
	bad := &Channel{Format: Table, Payload: 42}
	if _, err := bad.AsCollection(); err == nil {
		t.Error("AsCollection on table channel accepted")
	}
	corrupt := &Channel{Format: Collection, Payload: "nope"}
	if _, err := corrupt.AsCollection(); err == nil {
		t.Error("AsCollection on corrupt payload accepted")
	}
}

// upper registers a converter that tags the payload string, for path
// verification.
func tagConv(from, to Format, fixed time.Duration, perByte float64) Converter {
	return Converter{
		From: from, To: to, Fixed: fixed, PerByteNS: perByte,
		Convert: func(c *Channel) (*Channel, error) {
			s, _ := c.Payload.(string)
			return &Channel{Format: to, Payload: s + "→" + string(to), Records: c.Records, Bytes: c.Bytes}, nil
		},
	}
}

func TestConvertDirect(t *testing.T) {
	r := NewRegistry()
	r.Register(tagConv(Collection, Table, time.Millisecond, 0))
	ch := &Channel{Format: Collection, Payload: "start", Bytes: 100}
	out, cost, steps, err := r.Convert(ch, Table)
	if err != nil {
		t.Fatal(err)
	}
	if out.Format != Table || steps != 1 || cost != time.Millisecond {
		t.Errorf("out=%+v cost=%v steps=%d", out, cost, steps)
	}
}

func TestConvertSameFormatIsFree(t *testing.T) {
	r := NewRegistry()
	ch := &Channel{Format: Collection, Payload: "x"}
	out, cost, steps, err := r.Convert(ch, Collection)
	if err != nil || out != ch || cost != 0 || steps != 0 {
		t.Errorf("same-format conversion not free: %v %v %d %v", out, cost, steps, err)
	}
}

func TestConvertMultiHopCheapestPath(t *testing.T) {
	r := NewRegistry()
	// Expensive direct edge vs cheap two-hop path.
	r.Register(tagConv(Collection, DFSFile, 10*time.Second, 0))
	r.Register(tagConv(Collection, Partitioned, time.Millisecond, 0))
	r.Register(tagConv(Partitioned, DFSFile, time.Millisecond, 0))
	ch := &Channel{Format: Collection, Payload: "s", Bytes: 10}
	out, cost, steps, err := r.Convert(ch, DFSFile)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 2 || cost != 2*time.Millisecond {
		t.Errorf("took steps=%d cost=%v (wanted the 2-hop path)", steps, cost)
	}
	if s, _ := out.Payload.(string); !strings.Contains(s, "partitioned") {
		t.Errorf("payload path %q does not go via partitioned", s)
	}
}

func TestPerByteCostInfluencesPath(t *testing.T) {
	r := NewRegistry()
	// Edge A: no fixed cost but expensive per byte. Edge B: fixed cost,
	// free per byte. Small payloads should take A, large payloads B.
	r.Register(Converter{From: Collection, To: Table, Fixed: 0, PerByteNS: 1000,
		Convert: func(c *Channel) (*Channel, error) {
			return &Channel{Format: Table, Payload: "A"}, nil
		}})
	r.Register(Converter{From: Collection, To: CSVFile, Fixed: time.Millisecond,
		Convert: func(c *Channel) (*Channel, error) {
			return &Channel{Format: CSVFile, Payload: "B1"}, nil
		}})
	r.Register(Converter{From: CSVFile, To: Table, Fixed: 0,
		Convert: func(c *Channel) (*Channel, error) {
			return &Channel{Format: Table, Payload: "B2"}, nil
		}})

	small := &Channel{Format: Collection, Bytes: 10}
	_, costSmall, stepsSmall, err := r.Convert(small, Table)
	if err != nil {
		t.Fatal(err)
	}
	if stepsSmall != 1 {
		t.Errorf("small payload took %d steps (cost %v)", stepsSmall, costSmall)
	}
	large := &Channel{Format: Collection, Bytes: 10_000_000}
	_, _, stepsLarge, err := r.Convert(large, Table)
	if err != nil {
		t.Fatal(err)
	}
	if stepsLarge != 2 {
		t.Errorf("large payload took %d steps (should prefer fixed-cost path)", stepsLarge)
	}
}

func TestConvertNoPath(t *testing.T) {
	r := NewRegistry()
	ch := &Channel{Format: Collection}
	if _, _, _, err := r.Convert(ch, Table); err == nil {
		t.Error("conversion without path accepted")
	}
	if _, ok := r.PathCost(Collection, Table, 0); ok {
		t.Error("PathCost claims a path exists")
	}
}

func TestPathCost(t *testing.T) {
	r := NewRegistry()
	r.Register(tagConv(Collection, Table, time.Second, 1))
	cost, ok := r.PathCost(Collection, Table, 1000)
	if !ok {
		t.Fatal("no path")
	}
	if cost != time.Second+1000*time.Nanosecond {
		t.Errorf("cost = %v", cost)
	}
	if c, ok := r.PathCost(Table, Table, 5); !ok || c != 0 {
		t.Error("identity path not free")
	}
}

// TestShortestPathDeterministic pins the tie-breaking of the path
// search: with two distinct equal-cost routes the search must pick the
// same one on every call — map iteration order used to decide the
// winner, so the executor could perform a different (equally priced)
// conversion chain run to run. Ties break toward the lexicographically
// smaller intermediate format.
func TestShortestPathDeterministic(t *testing.T) {
	r := NewRegistry()
	// Two equal-cost two-hop routes: via "csvfile" and via "partitioned".
	r.Register(tagConv(Collection, Partitioned, time.Millisecond, 0))
	r.Register(tagConv(Collection, CSVFile, time.Millisecond, 0))
	r.Register(tagConv(Partitioned, DFSFile, time.Millisecond, 0))
	r.Register(tagConv(CSVFile, DFSFile, time.Millisecond, 0))

	var first string
	for i := 0; i < 200; i++ {
		ch := &Channel{Format: Collection, Payload: "s", Bytes: 64}
		out, cost, steps, err := r.Convert(ch, DFSFile)
		if err != nil {
			t.Fatal(err)
		}
		if steps != 2 || cost != 2*time.Millisecond {
			t.Fatalf("run %d: steps=%d cost=%v", i, steps, cost)
		}
		path, _ := out.Payload.(string)
		if first == "" {
			first = path
		} else if path != first {
			t.Fatalf("run %d took %q, run 0 took %q", i, path, first)
		}
	}
	if !strings.Contains(first, string(CSVFile)) {
		t.Errorf("tie broke to %q, want the lexicographically smaller csvfile route", first)
	}
}

// TestEqualCostPrefersShorterChain pins the second tie-break: when a
// direct edge and a multi-hop route price identically, the direct edge
// wins — fewer real conversions for the same modelled cost.
func TestEqualCostPrefersShorterChain(t *testing.T) {
	r := NewRegistry()
	r.Register(tagConv(Collection, DFSFile, 2*time.Millisecond, 0))
	r.Register(tagConv(Collection, Partitioned, time.Millisecond, 0))
	r.Register(tagConv(Partitioned, DFSFile, time.Millisecond, 0))
	for i := 0; i < 50; i++ {
		_, cost, steps, err := r.Convert(&Channel{Format: Collection, Payload: "s"}, DFSFile)
		if err != nil {
			t.Fatal(err)
		}
		if steps != 1 || cost != 2*time.Millisecond {
			t.Fatalf("run %d: steps=%d cost=%v, want the direct edge", i, steps, cost)
		}
	}
}

func TestConvertErrorMidChain(t *testing.T) {
	// First hop succeeds, second hop fails: the error must surface,
	// name the failing hop, and preserve the cause for errors.Is.
	r := NewRegistry()
	boom := errors.New("mid-chain boom")
	r.Register(tagConv(Collection, Partitioned, time.Millisecond, 0))
	r.Register(Converter{From: Partitioned, To: DFSFile,
		Convert: func(*Channel) (*Channel, error) { return nil, boom }})
	_, _, _, err := r.Convert(&Channel{Format: Collection, Payload: "s"}, DFSFile)
	if !errors.Is(err, boom) {
		t.Fatalf("mid-chain error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "partitioned → dfs") {
		t.Errorf("error %q does not name the failing hop", err)
	}
}

func TestPathCostNoRoute(t *testing.T) {
	// A graph with edges, just none reaching the target — distinct from
	// the empty-registry case.
	r := NewRegistry()
	r.Register(tagConv(Collection, Partitioned, time.Millisecond, 0))
	if _, ok := r.PathCost(Collection, Table, 100); ok {
		t.Error("PathCost found a route to an unreachable format")
	}
	if _, _, _, err := r.Convert(&Channel{Format: Collection}, Table); err == nil ||
		!strings.Contains(err.Error(), "no conversion path") {
		t.Errorf("Convert error = %v, want a no-path failure", err)
	}
	// The reverse direction is also unreachable: edges are directed.
	if _, ok := r.PathCost(Partitioned, Collection, 100); ok {
		t.Error("PathCost treated a directed edge as bidirectional")
	}
}

func TestConverterErrorPropagates(t *testing.T) {
	r := NewRegistry()
	boom := errors.New("boom")
	r.Register(Converter{From: Collection, To: Table,
		Convert: func(*Channel) (*Channel, error) { return nil, boom }})
	if _, _, _, err := r.Convert(&Channel{Format: Collection}, Table); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestConverterFormatMismatchDetected(t *testing.T) {
	r := NewRegistry()
	r.Register(Converter{From: Collection, To: Table,
		Convert: func(c *Channel) (*Channel, error) {
			return &Channel{Format: CSVFile}, nil // lies about its output
		}})
	if _, _, _, err := r.Convert(&Channel{Format: Collection}, Table); err == nil {
		t.Error("format-lying converter accepted")
	}
}

// TestFormats: every format a converter names is listed, sorted — also
// one that is only ever a target.
func TestFormats(t *testing.T) {
	r := NewRegistry()
	if got := r.Formats(); len(got) != 0 {
		t.Errorf("empty registry lists %v", got)
	}
	r.Register(tagConv(Table, Collection, 0, 0))
	r.Register(tagConv(Collection, Table, 0, 0))
	r.Register(tagConv(Table, CSVFile, 0, 0)) // CSVFile: a sink of the graph
	want := []Format{Collection, CSVFile, Table}
	for i := 0; i < 20; i++ {
		if got := r.Formats(); !slices.Equal(got, want) {
			t.Fatalf("Formats() = %v, want %v", got, want)
		}
	}
}

// refGraph is the map-based conversion graph this package used before
// the snapshot registry, kept as the reference the dense search is
// checked against.
type refGraph struct{ edges map[Format][]Converter }

// shortestPath is that registry's Dijkstra, verbatim but for the lock:
// equal-cost frontier nodes in Format name order, the shorter chain
// between equal-cost routes to the same node.
func (r *refGraph) shortestPath(from, to Format, bytes int64) ([]Converter, time.Duration, bool) {
	type state struct {
		cost time.Duration
		via  []Converter
		done bool
	}
	states := map[Format]*state{from: {}}
	for {
		// Pick the cheapest unfinished node (linear scan; the graph
		// has a handful of formats), breaking cost ties by name.
		var cur Format
		var curState *state
		for f, s := range states {
			if s.done {
				continue
			}
			if curState == nil || s.cost < curState.cost ||
				(s.cost == curState.cost && f < cur) {
				cur, curState = f, s
			}
		}
		if curState == nil {
			return nil, 0, false
		}
		if cur == to {
			return curState.via, curState.cost, true
		}
		curState.done = true
		for _, e := range r.edges[cur] {
			nc := curState.cost + e.cost(bytes)
			s, ok := states[e.To]
			better := !ok || (!s.done && (nc < s.cost ||
				(nc == s.cost && len(curState.via)+1 < len(s.via))))
			if better {
				via := make([]Converter, len(curState.via)+1)
				copy(via, curState.via)
				via[len(via)-1] = e
				states[e.To] = &state{cost: nc, via: via}
			}
		}
	}
}

// TestSearchMatchesReference is the path search's differential test:
// on seeded random graphs — duplicate edges, zero-cost edges, costs
// from a tiny set so routes tie all the time, formats nothing leads to
// — PathCost and Convert must agree with the reference on reachability,
// cost and the exact chain (which of two parallel converters included),
// for every format pair and volume.
func TestSearchMatchesReference(t *testing.T) {
	volumes := []int64{-1, 0, 1, 1 << 10, 1 << 30}
	fixed := []time.Duration{0, 0, time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond}
	perByte := []float64{0, 0, 0.001, 0.0015, 0.002}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Names drawn at random so index (name) order is unrelated to
		// the order formats first appear in.
		formats := make([]Format, 2+rng.Intn(11))
		for i := range formats {
			formats[i] = Format(fmt.Sprintf("%c%c%02d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), i))
		}
		reg, ref := NewRegistry(), &refGraph{edges: map[Format][]Converter{}}
		connected := formats[:len(formats)-rng.Intn(2)] // sometimes one format no edge touches
		for e, n := 0, rng.Intn(3*len(formats)+1); e < n; e++ {
			from, to := connected[rng.Intn(len(connected))], connected[rng.Intn(len(connected))]
			tag := fmt.Sprintf(" %s>%s#%d", from, to, e)
			c := Converter{
				From: from, To: to,
				Fixed: fixed[rng.Intn(len(fixed))], PerByteNS: perByte[rng.Intn(len(perByte))],
				Convert: func(ch *Channel) (*Channel, error) {
					return &Channel{Format: to, Payload: ch.Payload.(string) + tag, Bytes: ch.Bytes}, nil
				},
			}
			reg.Register(c)
			ref.edges[from] = append(ref.edges[from], c)
			if rng.Intn(4) == 0 { // a parallel twin at the same price
				twin := c
				twinTag := tag + "'"
				twin.Convert = func(ch *Channel) (*Channel, error) {
					return &Channel{Format: to, Payload: ch.Payload.(string) + twinTag, Bytes: ch.Bytes}, nil
				}
				reg.Register(twin)
				ref.edges[from] = append(ref.edges[from], twin)
			}
		}
		for _, from := range formats {
			for _, to := range formats {
				for _, bytes := range volumes {
					path, wantCost, wantOK := ref.shortestPath(from, to, bytes)
					gotCost, gotOK := reg.PathCost(from, to, bytes)
					if gotOK != wantOK || gotCost != wantCost {
						t.Fatalf("seed %d %s→%s %dB: PathCost = %v, %v; reference %v, %v",
							seed, from, to, bytes, gotCost, gotOK, wantCost, wantOK)
					}
					out, cost, steps, err := reg.Convert(&Channel{Format: from, Payload: "", Bytes: bytes}, to)
					if (err == nil) != wantOK {
						t.Fatalf("seed %d %s→%s %dB: Convert error %v, reference ok=%v", seed, from, to, bytes, err, wantOK)
					}
					if !wantOK {
						continue
					}
					wantChain := ""
					cur := &Channel{Payload: "", Bytes: bytes}
					for _, c := range path {
						cur, _ = c.Convert(cur)
					}
					wantChain = cur.Payload.(string)
					if got := out.Payload.(string); got != wantChain || cost != wantCost || steps != len(path) {
						t.Fatalf("seed %d %s→%s %dB: Convert took%s (%v, %d steps); reference%s (%v, %d steps)",
							seed, from, to, bytes, got, cost, steps, wantChain, wantCost, len(path))
					}
				}
			}
		}
	}
}

// TestSearchBeyondStackState: a graph wider than the search's on-stack
// state still finds its chain.
func TestSearchBeyondStackState(t *testing.T) {
	r := NewRegistry()
	const n = 2*stackFormats + 3
	name := func(i int) Format { return Format(fmt.Sprintf("f%03d", i)) }
	for i := 0; i+1 < n; i++ {
		r.Register(tagConv(name(i), name(i+1), time.Millisecond, 0))
	}
	cost, ok := r.PathCost(name(0), name(n-1), 10)
	if !ok || cost != (n-1)*time.Millisecond {
		t.Fatalf("PathCost over %d formats = %v, %v", n, cost, ok)
	}
	out, _, steps, err := r.Convert(&Channel{Format: name(0), Payload: "s"}, name(n-1))
	if err != nil || steps != n-1 || out.Format != name(n-1) {
		t.Fatalf("Convert over %d formats: %v, %d steps, err %v", n, out, steps, err)
	}
}

func TestConversionStats(t *testing.T) {
	r := NewRegistry()
	r.Register(tagConv(Collection, Table, time.Millisecond, 0))
	r.Register(tagConv(Table, CSVFile, time.Millisecond, 0))

	if got := r.ConversionStats(); len(got) != 0 {
		t.Fatalf("fresh registry has stats: %+v", got)
	}

	// Two multi-hop conversions over the same route account as one
	// (from, to) entry; same-format no-ops and failures don't count.
	for i := 0; i < 2; i++ {
		ch := &Channel{Format: Collection, Payload: "x", Bytes: 100}
		if _, _, _, err := r.Convert(ch, CSVFile); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := r.Convert(&Channel{Format: Table, Payload: "x", Bytes: 7}, Table); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Convert(&Channel{Format: DFSFile}, Table); err == nil {
		t.Fatal("pathless conversion accepted")
	}

	stats := r.ConversionStats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	s := stats[0]
	if s.From != Collection || s.To != CSVFile || s.Count != 2 || s.Bytes != 200 {
		t.Errorf("stat = %+v", s)
	}

	// Deterministic (from, to) ordering.
	r.Register(tagConv(CSVFile, DFSFile, time.Millisecond, 0))
	if _, _, _, err := r.Convert(&Channel{Format: CSVFile, Payload: "x", Bytes: 1}, DFSFile); err != nil {
		t.Fatal(err)
	}
	stats = r.ConversionStats()
	if len(stats) != 2 || stats[0].From > stats[1].From {
		t.Errorf("stats not sorted: %+v", stats)
	}
}
