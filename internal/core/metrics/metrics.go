// Package metrics is the live half of the observability subsystem: a
// dependency-free metrics registry the rest of the system can populate
// on the hot path and an HTTP surface (Prometheus text exposition,
// live run progress, pprof) to watch a plan execute *while it runs*.
//
// PR 3's trace subsystem records what happened — spans, platform
// counters, the estimate-vs-actual audit — but only exposes it after
// Execute returns. The paper's progressive-optimization story (§4) and
// RHEEMix's cost learner both assume runtime statistics are available
// continuously; this package closes that gap without adding any new
// instrumentation points: a Collector subscribes to the executor's
// span stream (package trace) and folds every event into atomic
// instruments, so the executor, engine registry and channel converters
// stay untouched.
//
// Design constraints, in order:
//
//   - Hot-path writes must be cheap: counters and histogram buckets are
//     sharded across cache-line-padded atomic cells, so concurrent
//     scheduler goroutines don't serialize on one contended word.
//   - No dependencies: the exposition writer and its parser are local,
//     emitting (and validating) the Prometheus text format.
//   - Scrapes never block execution: readers sum the shards without
//     stopping writers, accepting the usual slightly-torn totals of a
//     live scrape.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numShards stripes every hot counter across this many padded cells.
// Must be a power of two.
const numShards = 16

// cell is one cache-line-padded atomic counter shard. The padding
// keeps neighbouring shards off each other's cache line, which is the
// whole point of sharding.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// shardIdx picks a shard for the calling goroutine. Goroutine stacks
// live in distinct spans, so the address of a stack variable is a
// cheap, stable-enough discriminator — two goroutines hammering the
// same counter land on different cells with high probability.
func shardIdx() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe)) >> 10 & (numShards - 1))
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	shards [numShards]cell
}

// Add increments the counter. Negative deltas are ignored — counters
// only go up.
func (c *Counter) Add(delta int64) {
	if delta <= 0 {
		return
	}
	c.shards[shardIdx()].n.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. Concurrent writers keep writing; the sum is a
// live snapshot, monotone across calls from a single reader.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Histogram is a fixed-bucket histogram: observation counts per
// upper-bound bucket plus a running sum and count. Buckets are chosen
// at registration and never change, so Observe is a binary search plus
// one sharded increment — no allocation, no lock.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []Counter // len(bounds)+1, last is the overflow bucket
	count  Counter
	sumMu  sync.Mutex // sum is a float; mutex beats a CAS loop at our rates
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]Counter, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Inc()
	h.count.Inc()
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// snapshot returns cumulative bucket counts (Prometheus-style: each
// bucket includes all smaller ones), the sum and the total count.
func (h *Histogram) snapshot() (buckets []BucketSnapshot, sum float64, count int64) {
	buckets = make([]BucketSnapshot, 0, len(h.bounds)+1)
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Value()
		buckets = append(buckets, BucketSnapshot{UpperBound: ub, CumulativeCount: cum})
	}
	cum += h.counts[len(h.bounds)].Value()
	buckets = append(buckets, BucketSnapshot{UpperBound: math.Inf(1), CumulativeCount: cum})
	h.sumMu.Lock()
	sum = h.sum
	h.sumMu.Unlock()
	return buckets, sum, h.count.Value()
}

// LatencyBuckets are the default bounds (seconds) for atom latency
// histograms: task atoms range from sub-millisecond relational lookups
// to multi-second simulated Spark stages.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the default bounds (bytes) for data-volume
// histograms, quadrupling from 256 B to 1 GiB.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Instrument kinds, matching Prometheus TYPE names.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child returns the family's child in m for the label values, made by mk
// on first use. Its key, the values joined by 0x1f (unit separator), is
// built on the stack: only a new child's key becomes a string.
func child[T any](f *family, m map[string]*T, values []string, mk func() *T) *T {
	var buf [64]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, '\x1f')
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	c := m[string(key)]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = m[string(key)]; c == nil {
		c = mk()
		k := string(key)
		m[k] = c
		f.order = append(f.order, k)
	}
	return c
}

// family is one named metric family: a set of children keyed by label
// values, or a callback producing samples at scrape time. A gauge is
// always a callback: what it reports is read from live state when
// scraped, never stored.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string

	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	order    []string // child label keys in first-use order
	bounds   []float64

	// fn, when set, makes this a callback family: samples are produced
	// fresh at every scrape (breaker states, derived ratios). Replaced
	// wholesale on re-registration, so a newer Context re-binding the
	// same hub takes over cleanly.
	fn func() []Sample
}

// Sample is one sample produced by a callback family.
type Sample struct {
	Labels []Label
	Value  float64
}

// Label is one name/value label pair.
type Label struct {
	Name, Value string
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Get-or-create registration is idempotent:
// registering an existing family (same name) returns the existing one,
// so collectors re-bound across Contexts share instruments instead of
// colliding.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) getOrCreate(name, help, typ string, labelNames []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, labelNames: labelNames, bounds: bounds,
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// CounterVec registers (or returns) a counter family with the given
// label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.getOrCreate(name, help, typeCounter, labelNames, nil)}
}

// HistogramVec registers (or returns) a histogram family with the
// given bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.getOrCreate(name, help, typeHistogram, labelNames, bounds)}
}

// SetFunc registers a callback family evaluated at scrape time,
// replacing any previous callback under the same name. typ must be
// "counter" or "gauge".
func (r *Registry) SetFunc(name, help, typ string, labelNames []string, fn func() []Sample) {
	f := r.getOrCreate(name, help, typ, labelNames, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the label values (created on
// first use). len(values) must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	return child(v.f, v.f.counters, values, func() *Counter { return &Counter{} })
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return child(v.f, v.f.hists, values, func() *Histogram { return newHistogram(v.f.bounds) })
}

// labelsFor reconstructs name/value pairs from a child key.
func (f *family) labelsFor(key string) []Label {
	if key == "" && len(f.labelNames) == 0 {
		return nil
	}
	values := strings.Split(key, "\x1f")
	labels := make([]Label, 0, len(f.labelNames))
	for i, n := range f.labelNames {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		labels = append(labels, Label{Name: n, Value: v})
	}
	return labels
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound      float64 `json:"le"`
	CumulativeCount int64   `json:"count"`
}

// SampleSnapshot is one sample of a family snapshot: a plain value for
// counters and gauges, buckets+sum+count for histograms.
type SampleSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	// Histogram-only fields.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Count   int64            `json:"count,omitempty"`
}

// FamilySnapshot is one metric family's deep-copied state.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help"`
	Type    string           `json:"type"`
	Samples []SampleSnapshot `json:"samples"`
}

// Snapshot is a deep-copied, immutable export of a registry: the same
// numbers the /metrics endpoint serves, as plain data a test can
// assert on. Mutating a snapshot can never alias live registry state.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Counter returns the value of a counter/gauge sample whose labels
// match exactly, and whether it exists.
func (s *Snapshot) Counter(name string, labels map[string]string) (float64, bool) {
	sm := s.find(name, labels)
	if sm == nil {
		return 0, false
	}
	return sm.Value, true
}

// HistogramCount returns the observation count of a histogram sample
// whose labels match exactly, and whether it exists.
func (s *Snapshot) HistogramCount(name string, labels map[string]string) (int64, bool) {
	sm := s.find(name, labels)
	if sm == nil {
		return 0, false
	}
	return sm.Count, true
}

func (s *Snapshot) find(name string, labels map[string]string) *SampleSnapshot {
	for i := range s.Families {
		f := &s.Families[i]
		if f.Name != name {
			continue
		}
		for j := range f.Samples {
			sm := &f.Samples[j]
			if len(sm.Labels) != len(labels) {
				continue
			}
			match := true
			for k, v := range labels {
				if sm.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return sm
			}
		}
	}
	return nil
}

// Snapshot deep-copies every family. Callback families are evaluated.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	snap := &Snapshot{}
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		for _, sm := range f.collect() {
			labels := map[string]string{}
			for _, l := range sm.labels {
				labels[l.Name] = l.Value
			}
			if len(labels) == 0 {
				labels = nil
			}
			fs.Samples = append(fs.Samples, SampleSnapshot{
				Labels:  labels,
				Value:   sm.value,
				Buckets: sm.buckets,
				Sum:     sm.sum,
				Count:   sm.count,
			})
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// collected is one sample with everything the writer needs.
type collected struct {
	labels  []Label
	value   float64
	buckets []BucketSnapshot
	sum     float64
	count   int64
}

// collect reads the family's current samples in deterministic order.
func (f *family) collect() []collected {
	f.mu.RLock()
	fn := f.fn
	keys := make([]string, len(f.order))
	copy(keys, f.order)
	f.mu.RUnlock()

	if fn != nil {
		samples := fn()
		out := make([]collected, 0, len(samples))
		for _, s := range samples {
			out = append(out, collected{labels: s.Labels, value: s.Value})
		}
		return out
	}
	var out []collected
	for _, key := range keys {
		f.mu.RLock()
		c, h := f.counters[key], f.hists[key]
		f.mu.RUnlock()
		labels := f.labelsFor(key)
		switch {
		case c != nil:
			out = append(out, collected{labels: labels, value: float64(c.Value())})
		case h != nil:
			buckets, sum, count := h.snapshot()
			out = append(out, collected{labels: labels, buckets: buckets, sum: sum, count: count})
		}
	}
	return out
}

// checkName reports whether s is a legal Prometheus metric or label
// name.
func checkName(s string) error {
	if s == "" {
		return fmt.Errorf("metrics: empty name")
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("metrics: invalid name %q", s)
		}
	}
	return nil
}
