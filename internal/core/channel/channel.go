// Package channel models data movement between processing platforms
// and storage engines — the paper's "inter-platform cost model ...
// [capturing] the cost of transferring and transforming data from one
// processing platform to another" (§4.2, third requirement).
//
// A Channel is a handle to a dataset in some platform- or
// storage-native representation (Format). Platforms consume and
// produce channels in their native format; when an execution plan
// places adjacent task atoms on platforms with different native
// formats, the executor asks the conversion Registry for the cheapest
// chain of registered Converters and the optimizer charges that chain's
// cost to the plan. Conversion is therefore both *priced* (for the
// optimizer) and *performed* (for the executor) by the same graph,
// which keeps the two honest with each other.
package channel

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rheem/internal/data"
)

// Format names a native data representation. Formats are an open set:
// platforms and storage engines register theirs along with converters.
type Format string

// The built-in formats of the bundled platforms and stores.
const (
	// Collection is a []data.Record in driver memory — the hub format
	// every platform can convert to and from.
	Collection Format = "collection"
	// Partitioned is a [][]data.Record, the Spark simulator's RDD-like
	// native format.
	Partitioned Format = "partitioned"
	// Table is a relational-engine table reference.
	Table Format = "table"
	// CSVFile is a typed-header CSV file on the local filesystem.
	CSVFile Format = "csvfile"
	// DFSFile is a file in the simulated distributed filesystem.
	DFSFile Format = "dfs"
)

// Channel is a dataset handle in a specific format. Records and Bytes
// carry cardinality metadata when known (-1 otherwise) so converters
// and the virtual clock can account volume without materialising.
type Channel struct {
	Format  Format
	Payload any
	Records int64
	Bytes   int64
}

// NewCollection wraps records in a Collection channel.
func NewCollection(recs []data.Record) *Channel {
	return &Channel{
		Format:  Collection,
		Payload: recs,
		Records: int64(len(recs)),
		Bytes:   data.TotalBytes(recs),
	}
}

// Rewrap returns a channel in format f over payload, which holds exactly
// c's records — a view, a copy or another layout of them. It keeps c's
// Records and Bytes rather than counting them again: a converter that only
// re-slices or re-wraps records has no volume of its own to measure.
func (c *Channel) Rewrap(f Format, payload any) *Channel {
	return &Channel{Format: f, Payload: payload, Records: c.Records, Bytes: c.Bytes}
}

// AsCollection returns the record slice of a Collection channel.
func (c *Channel) AsCollection() ([]data.Record, error) {
	if c.Format != Collection {
		return nil, fmt.Errorf("channel: %s channel is not a collection", c.Format)
	}
	recs, ok := c.Payload.([]data.Record)
	if !ok {
		return nil, fmt.Errorf("channel: collection channel holds %T", c.Payload)
	}
	return recs, nil
}

// Converter is one edge of the conversion graph: it transforms a
// channel from one format to another at a modelled cost of
// Fixed + Bytes·PerByteNS nanoseconds.
type Converter struct {
	From, To  Format
	Fixed     time.Duration
	PerByteNS float64
	Convert   func(*Channel) (*Channel, error)
}

// cost prices moving the given byte volume through this converter.
func (c Converter) cost(bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	return c.Fixed + time.Duration(float64(bytes)*c.PerByteNS)
}

// Registry is the conversion graph. Platforms and stores register
// converters for their formats at startup; the optimizer prices paths
// and the executor executes them — concurrently, and far more often
// than the graph changes. Readers therefore do not lock: PathCost,
// Convert and Formats work on an immutable snapshot of the graph;
// Register drops it and the next reader publishes a fresh one.
type Registry struct {
	mu         sync.Mutex  // guards converters and snapshot rebuilds
	converters []Converter // registration order
	snap       atomic.Pointer[graph]

	// convMu guards the cumulative conversion traffic ledger, which
	// only finished conversions touch — never a path search.
	convMu sync.Mutex
	conv   map[[2]Format]*ConversionStat
}

// graph is one immutable snapshot of the conversion graph. Every format
// a converter names is interned to its position in the name-sorted
// formats slice, so the search keeps per-format state in an array.
type graph struct {
	formats []Format // sorted; a format's index is its dense id
	edges   [][]edge // by From index, in registration order
}

// edge is a converter with its endpoints interned.
type edge struct {
	Converter
	from, to int
}

// view returns the current snapshot, building it from the registered
// converters if Register dropped the last one. Only that rebuild locks.
func (r *Registry) view() *graph {
	if g := r.snap.Load(); g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.snap.Load(); g != nil {
		return g
	}
	g := &graph{}
	for _, c := range r.converters {
		g.formats = append(g.formats, c.From, c.To)
	}
	slices.Sort(g.formats)
	g.formats = slices.Compact(g.formats)
	g.edges = make([][]edge, len(g.formats))
	for _, c := range r.converters {
		e := edge{Converter: c, from: slices.Index(g.formats, c.From), to: slices.Index(g.formats, c.To)}
		g.edges[e.from] = append(g.edges[e.from], e)
	}
	r.snap.Store(g)
	return g
}

// ConversionStat is the cumulative traffic over one (from, to)
// conversion route: how many conversions were performed end-to-end and
// how many bytes entered them. The live telemetry layer exports these
// as rheem_channel_conversions_total / _bytes_total.
type ConversionStat struct {
	From, To Format
	Count    int64
	Bytes    int64
}

// NewRegistry returns an empty conversion graph.
func NewRegistry() *Registry {
	return &Registry{conv: make(map[[2]Format]*ConversionStat)}
}

// recordConversion accounts one performed end-to-end conversion.
func (r *Registry) recordConversion(from, to Format, bytes int64) {
	r.convMu.Lock()
	key := [2]Format{from, to}
	s := r.conv[key]
	if s == nil {
		s = &ConversionStat{From: from, To: to}
		r.conv[key] = s
	}
	s.Count++
	if bytes > 0 {
		s.Bytes += bytes
	}
	r.convMu.Unlock()
}

// ConversionStats returns the cumulative per-route conversion traffic,
// sorted by (from, to) for deterministic output.
func (r *Registry) ConversionStats() []ConversionStat {
	r.convMu.Lock()
	out := make([]ConversionStat, 0, len(r.conv))
	for _, s := range r.conv {
		out = append(out, *s)
	}
	r.convMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Register adds a converter edge.
func (r *Registry) Register(c Converter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.converters = append(r.converters, c)
	r.snap.Store(nil)
}

// PathCost returns the cost of the cheapest conversion chain from one
// format to another for the given byte volume, and whether a path
// exists. Same-format queries cost zero. It allocates nothing: the
// optimizer asks once per (operator, consumer, producer) cell of its DP.
func (r *Registry) PathCost(from, to Format, bytes int64) (time.Duration, bool) {
	if from == to {
		return 0, true
	}
	var buf [stackFormats]pathState
	st, t, ok := r.view().search(buf[:], from, to, bytes)
	if !ok {
		return 0, false
	}
	return st[t].cost, true
}

// Convert transforms ch into the requested format along the cheapest
// chain, returning the converted channel, the modelled movement cost,
// and the number of conversion steps taken.
func (r *Registry) Convert(ch *Channel, to Format) (*Channel, time.Duration, int, error) {
	if ch.Format == to {
		return ch, 0, 0, nil
	}
	var buf [stackFormats]pathState
	st, t, ok := r.view().search(buf[:], ch.Format, to, ch.Bytes)
	if !ok {
		return nil, 0, 0, fmt.Errorf("channel: no conversion path %s → %s", ch.Format, to)
	}
	// The search leaves a predecessor edge per format; walk them back
	// from the target once to get the chain in execution order.
	path := make([]*edge, st[t].hops)
	for i, at := len(path)-1, t; i >= 0; i-- {
		path[i] = st[at].via
		at = path[i].from
	}
	cur := ch
	for _, conv := range path {
		next, err := conv.Convert(cur)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("channel: converting %s → %s: %w", conv.From, conv.To, err)
		}
		if next.Format != conv.To {
			return nil, 0, 0, fmt.Errorf("channel: converter %s → %s produced %s", conv.From, conv.To, next.Format)
		}
		cur = next
	}
	r.recordConversion(ch.Format, to, ch.Bytes)
	return cur, st[t].cost, len(path), nil
}

// stackFormats is how many formats the path search handles on its
// caller's stack (the bundled platforms and stores register six); a
// larger graph makes the search allocate its state.
const stackFormats = 16

// pathState is the cheapest chain the search knows from the source to
// one format: its cost, its length and its last edge.
type pathState struct {
	cost       time.Duration
	hops       int
	via        *edge
	seen, done bool
}

// search runs Dijkstra from one format to a different one over the
// (tiny) graph, on the caller's zeroed state when st is large enough,
// and returns the state, the target's index and whether the target was
// reached. The volume is assumed preserved along the chain, which is
// accurate enough for pricing.
//
// The search is fully deterministic: equal-cost frontier formats are
// visited in Format name order (the index order), between equal-cost
// routes to the same format the shorter chain wins, and between equal
// chains the converter registered first — so the executor performs the
// exact conversions the optimizer priced.
func (g *graph) search(st []pathState, from, to Format, bytes int64) ([]pathState, int, bool) {
	s, t := slices.Index(g.formats, from), slices.Index(g.formats, to)
	if s < 0 || t < 0 {
		return nil, 0, false
	}
	if n := len(g.formats); n <= len(st) {
		st = st[:n]
	} else {
		st = make([]pathState, n)
	}
	st[s].seen = true
	for {
		// Pick the cheapest unfinished format (linear scan; the graph
		// has a handful), the strict < breaking cost ties by name.
		cur := -1
		for i := range st {
			if st[i].seen && !st[i].done && (cur < 0 || st[i].cost < st[cur].cost) {
				cur = i
			}
		}
		if cur < 0 {
			return nil, 0, false
		}
		if cur == t {
			return st, t, true
		}
		st[cur].done = true
		for i := range g.edges[cur] {
			e := &g.edges[cur][i]
			nc := st[cur].cost + e.cost(bytes)
			if n := &st[e.to]; !n.seen || (!n.done && (nc < n.cost ||
				(nc == n.cost && st[cur].hops+1 < n.hops))) {
				*n = pathState{cost: nc, hops: st[cur].hops + 1, via: e, seen: true}
			}
		}
	}
}

// Formats returns every format a registered converter names, as source
// or target, sorted by name. The slice is the snapshot's own: read it,
// do not modify it.
func (r *Registry) Formats() []Format { return r.view().formats }
