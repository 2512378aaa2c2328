// Package engine defines RHEEM's platform layer SPI: what a data
// processing platform must provide to be plugged into the core.
//
// Per the paper (§3.1–§3.2), plugging in a platform means implementing
// execution operators ("the platform-dependent implementation of a
// physical operator", working on batches of data quanta rather than
// one quantum at a time) and declaring *mappings* between physical and
// execution operators — "developers will provide only a declarative
// specification of such mappings; the system will use them to translate
// physical operators to execution operators". Here a Mapping is a plain
// value carrying the platform, the (operator kind, algorithm) pair it
// implements, a pluggable cost model, and an optional context hint for
// the optimizer. The Registry holds platforms and mappings; nothing in
// the optimizer is platform-specific.
package engine

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// PlatformID identifies a registered processing platform.
type PlatformID string

// Metrics reports what executing (part of) a plan actually did. Wall
// is measured host time; Sim is the virtual cluster clock (see
// DESIGN.md §5 "Real execution + virtual clock") — identical to Wall
// for single-node platforms, but including modelled parallelism, task
// dispatch and shuffle time for simulated distributed platforms.
type Metrics struct {
	Wall          time.Duration
	Sim           time.Duration
	Jobs          int   // platform jobs launched (atoms × iterations)
	InRecords     int64 // records consumed from input channels
	OutRecords    int64 // records produced to output channels
	ShuffledBytes int64 // bytes through simulated shuffles
	MovedBytes    int64 // bytes through cross-platform conversions
	Conversions   int   // converter steps executed
	Retries       int   // atom executions retried after failures
}

// Add accumulates other into m.
func (m *Metrics) Add(o Metrics) {
	m.Wall += o.Wall
	m.Sim += o.Sim
	m.Jobs += o.Jobs
	m.InRecords += o.InRecords
	m.OutRecords += o.OutRecords
	m.ShuffledBytes += o.ShuffledBytes
	m.MovedBytes += o.MovedBytes
	m.Conversions += o.Conversions
	m.Retries += o.Retries
}

// AtomKind distinguishes platform-executed atoms from loops, which the
// executor itself drives (unrolling iterations across the atom's
// platform, charging per-iteration job overhead — the Figure 2 effect).
type AtomKind int

// Task atom kinds.
const (
	AtomCompute AtomKind = iota
	AtomLoop
)

// TaskAtom is "a sub-task to be executed on a single data processing
// platform" (§3.1) — a connected fragment of the physical plan whose
// operators all run on one platform, exchanging data internally in the
// platform's native format. Only Exits cross the atom boundary.
type TaskAtom struct {
	ID       int
	Kind     AtomKind
	Platform PlatformID
	Ops      []*physical.Operator // topological order within the atom
	Exits    []*physical.Operator // operators whose output leaves the atom

	// LoopOp is set for AtomLoop atoms: the Repeat/DoWhile operator.
	LoopOp *physical.Operator

	label string // String()'s result once Seal has fixed it
}

// Contains reports whether the atom holds the physical operator id.
func (a *TaskAtom) Contains(opID int) bool {
	return (a.LoopOp != nil && a.LoopOp.ID == opID) || a.position(opID) >= 0
}

// position returns the position in Ops of the operator id, -1 if the
// atom does not compute it.
func (a *TaskAtom) position(opID int) int {
	return slices.IndexFunc(a.Ops, func(op *physical.Operator) bool { return op.ID == opID })
}

// Reader returns the one operator of the atom that reads op's output:
// nil when op leaves the atom or is read more than once, or by nothing.
// A platform that runs operators lazily can hand that reader op's work
// unevaluated, because nothing else will ask for it.
func (a *TaskAtom) Reader(op *physical.Operator) *physical.Operator {
	if slices.Contains(a.Exits, op) {
		return nil
	}
	var reader *physical.Operator
	for _, c := range a.Ops {
		for _, in := range c.Inputs {
			if in == op {
				if reader != nil {
					return nil
				}
				reader = c
			}
		}
	}
	return reader
}

// String renders the atom for plan explanations.
func (a *TaskAtom) String() string {
	if a.label != "" {
		return a.label
	}
	ops := a.Ops
	if a.Kind == AtomLoop {
		ops = []*physical.Operator{a.LoopOp}
	}
	// On the stack: a label up to 512 bytes costs one allocation, the
	// string, however many operators it names.
	b := make([]byte, 0, 512)
	b = append(b, "atom#"...)
	b = strconv.AppendInt(b, int64(a.ID), 10)
	b = append(b, '@')
	b = append(b, a.Platform...)
	b = append(b, '{')
	for i, op := range ops {
		if i > 0 {
			b = append(b, " → "...)
		}
		b = op.AppendName(b)
	}
	b = append(b, '}')
	return string(b)
}

// Seal renders the atom's name once and keeps it, for the spans of
// every run to carry. The optimizer seals an atom when its operators
// and their algorithms are final; an unsealed atom renders on demand.
func (a *TaskAtom) Seal() { a.label = a.String() }

// AtomInputs holds a compute atom's external input channels, indexed
// by the consuming operator's position in TaskAtom.Ops and then by
// input slot. Slots fed from inside the atom are nil, and so is the
// slot list of an operator with no external input.
type AtomInputs [][]*channel.Channel

// NewAtomInputs returns the atom's input table with every slot empty:
// the slot lists of all its operators share one backing array.
func NewAtomInputs(atom *TaskAtom) AtomInputs {
	n := 0
	for _, op := range atom.Ops {
		n += len(op.Inputs)
	}
	slots := make([]*channel.Channel, n)
	in := make(AtomInputs, len(atom.Ops))
	for i, op := range atom.Ops {
		k := len(op.Inputs)
		in[i], slots = slots[:k:k], slots[k:]
	}
	return in
}

// Channel returns the external channel feeding input slot of the
// operator at position pos of the atom, nil if there is none.
func (in AtomInputs) Channel(pos, slot int) *channel.Channel {
	if pos >= len(in) || slot >= len(in[pos]) {
		return nil
	}
	return in[pos][slot]
}

// Platform is a pluggable data processing platform.
type Platform interface {
	// ID returns the platform's unique identifier.
	ID() PlatformID
	// NativeFormat is the channel format the platform computes in.
	NativeFormat() channel.Format
	// ExecuteAtom runs a compute atom: it converts nothing (inputs
	// arrive already in native format), executes the atom's operators
	// in order, and returns a native-format channel per exit operator,
	// by position: exits[i] is atom.Exits[i]'s.
	//
	// ExecuteAtom MUST be safe for concurrent calls: the executor
	// schedules independent atoms in parallel, so any state shared
	// across executions (a table catalog, stage accounting, caches)
	// has to be synchronized by the platform. Per-execution state
	// should live in a per-call value, the way the bundled platforms
	// allocate a fresh DatasetOps per atom. Input channels may be
	// shared with concurrently executing atoms and must be treated as
	// immutable.
	ExecuteAtom(ctx context.Context, atom *TaskAtom, inputs AtomInputs) ([]*channel.Channel, Metrics, error)
	// RegisterConverters adds the platform's channel converters
	// (native ↔ Collection at minimum) to the conversion graph.
	RegisterConverters(reg *channel.Registry)
}

// Vectorized is an optional Platform capability: the platform executes
// some operators directly on the columnar batch format
// (channel.Batch). SupportsBatch reports, per physical operator,
// whether the operator wants its input in that format — on the bundled
// single-node engine, exactly when the logical operator carries a
// declarative column hint (plan.ColPred, plan.ColProject, plan.ColAgg),
// since an opaque UDF closure cannot be vectorized. It is a request for
// an input format, not a mode: the answer depends on the operator
// alone, and an operator that merely tolerates a batch (a sink) answers
// false. Registry.InputFormat decides, per input, whether a supporting
// operator takes it as a Batch channel or in the platform's native
// format — whichever conversion is cheaper. The columnar result must be
// byte-identical to what the operator's UDF computes row by row — the
// hints are an execution strategy, never a semantics change.
type Vectorized interface {
	SupportsBatch(op *physical.Operator) bool
}

// Mapping declares that a platform implements a (kind, algorithm)
// physical operator, at the cost the model estimates. Hint carries
// free-form context for the optimizer, mirroring the paper's mapping
// "context information ... to provide hints to the optimizer".
type Mapping struct {
	Platform PlatformID
	Kind     plan.OpKind
	Algo     physical.Algorithm
	Cost     cost.Model
	Hint     string
}

// Registry holds the registered platforms, their declarative operator
// mappings, and the shared channel-conversion graph. It is the single
// source the optimizer and executor consult; applications never talk
// to platforms directly. Lookups and registrations are safe for
// concurrent use, and lookups do not lock: the optimizer asks MappingFor
// once per DP cell and the executor resolves platforms from many
// goroutines, while registrations happen at start-up. Readers work on
// an immutable snapshot; a mutation drops it and the next reader
// publishes a fresh one — one rebuild per burst of registrations.
type Registry struct {
	mu        sync.Mutex // guards platforms and mappings, and snapshot rebuilds
	platforms []Platform // registration order
	mappings  []Mapping  // registration order
	snap      atomic.Pointer[snapshot]
	channels  *channel.Registry
	health    *Health
}

// snapshot is one immutable state of the registry.
type snapshot struct {
	platforms []Platform   // registration order
	ids       []PlatformID // parallel to platforms
	mappings  []Mapping    // registration order
	// byOp holds each (platform, kind)'s mappings in registration order,
	// so MappingFor scans one operator's candidates, not the whole table.
	byOp map[opKey][]Mapping
}

type opKey struct {
	platform PlatformID
	kind     plan.OpKind
}

// view returns the current snapshot, building it from the registered
// platforms and mappings if a mutation dropped the last one. Only that
// rebuild locks.
func (r *Registry) view() *snapshot {
	if s := r.snap.Load(); s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.snap.Load(); s != nil {
		return s
	}
	s := &snapshot{
		platforms: slices.Clone(r.platforms),
		mappings:  slices.Clone(r.mappings),
		byOp:      make(map[opKey][]Mapping),
	}
	for _, p := range s.platforms {
		s.ids = append(s.ids, p.ID())
	}
	for _, m := range s.mappings {
		k := opKey{m.Platform, m.Kind}
		s.byOp[k] = append(s.byOp[k], m)
	}
	r.snap.Store(s)
	return s
}

// registered reports whether a platform id is taken; callers hold mu.
func (r *Registry) registered(id PlatformID) bool {
	return slices.ContainsFunc(r.platforms, func(p Platform) bool { return p.ID() == id })
}

// NewRegistry returns an empty registry with a fresh conversion graph.
func NewRegistry() *Registry {
	r := &Registry{
		channels: channel.NewRegistry(),
		health:   newHealth(),
	}
	// The columnar batch format is a driver format like Collection, not
	// a platform's: every registry carries its hub edges so any pair of
	// platforms can exchange batches once one of them vectorizes.
	channel.RegisterBatchConverters(r.channels)
	return r
}

// RegisterPlatform adds a platform and its channel converters.
func (r *Registry) RegisterPlatform(p Platform) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.registered(p.ID()) {
		return fmt.Errorf("engine: platform %q registered twice", p.ID())
	}
	r.platforms = append(r.platforms, p)
	r.snap.Store(nil)
	p.RegisterConverters(r.channels)
	return nil
}

// RegisterMapping adds a declarative operator mapping. The platform
// must already be registered.
func (r *Registry) RegisterMapping(m Mapping) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registered(m.Platform) {
		return fmt.Errorf("engine: mapping for unknown platform %q", m.Platform)
	}
	if m.Cost == nil {
		return fmt.Errorf("engine: mapping %v/%v/%v lacks a cost model", m.Platform, m.Kind, m.Algo)
	}
	r.mappings = append(r.mappings, m)
	r.snap.Store(nil)
	return nil
}

// Platform resolves a platform by id.
func (r *Registry) Platform(id PlatformID) (Platform, bool) {
	s := r.view()
	if i := slices.Index(s.ids, id); i >= 0 {
		return s.platforms[i], true
	}
	return nil, false
}

// PlatformIDs returns the registered platform IDs in registration
// order — the label set the telemetry layer enumerates gauges over.
// The slice is the snapshot's own: read it, do not modify it.
func (r *Registry) PlatformIDs() []PlatformID { return r.view().ids }

// Platforms returns all platforms in registration order. The slice is
// the snapshot's own: read it, do not modify it.
func (r *Registry) Platforms() []Platform { return r.view().platforms }

// MappingFor finds the mapping a platform declares for a (kind, algo)
// pair, falling back to the platform's Default-algorithm mapping for
// the kind when no exact algorithm match exists.
func (r *Registry) MappingFor(p PlatformID, kind plan.OpKind, algo physical.Algorithm) (Mapping, bool) {
	var fallback Mapping
	haveFallback := false
	for _, m := range r.view().byOp[opKey{p, kind}] {
		if m.Algo == algo {
			return m, true
		}
		if m.Algo == physical.Default {
			fallback, haveFallback = m, true
		}
	}
	return fallback, haveFallback
}

// Channels returns the shared conversion graph.
func (r *Registry) Channels() *channel.Registry { return r.channels }

// InputFormat decides the format in which op, running on platform to,
// takes an input that is in format from, and what moving bytes there
// costs: to's native format, or channel.Batch when to vectorizes op and
// the batch route is cheaper. ok is false when neither is reachable.
// It is the one answer to that question: the optimizer prices every
// cross-platform edge with it (from being the producer's native
// format), and the executor converts every external input to the format
// it returns (from being the channel's actual format, so a batch exit
// stays a batch), so a plan runs the way it was priced.
func (r *Registry) InputFormat(from channel.Format, to Platform, op *physical.Operator, bytes int64) (channel.Format, time.Duration, bool) {
	want := to.NativeFormat()
	d, ok := r.channels.PathCost(from, want, bytes)
	if vec, isVec := to.(Vectorized); isVec && op != nil && vec.SupportsBatch(op) {
		if bd, bok := r.channels.PathCost(from, channel.Batch, bytes); bok && (!ok || bd < d) {
			return channel.Batch, bd, true
		}
	}
	return want, d, ok
}

// Health returns the registry's platform health tracker (one circuit
// breaker per platform, fed by the executor).
func (r *Registry) Health() *Health { return r.health }

// Mappings returns a copy of every registered operator mapping.
func (r *Registry) Mappings() []Mapping { return slices.Clone(r.view().mappings) }

// CloneMappings registers, for the platform to, a copy of every mapping
// the platform from declares (same kind, algorithm, cost model, hint).
// It is how a wrapper platform — a fault injector, a proxy — inherits
// the operator coverage of the platform it wraps. Both platforms must
// already be registered.
func (r *Registry) CloneMappings(from, to PlatformID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registered(to) {
		return fmt.Errorf("engine: cloning mappings to unknown platform %q", to)
	}
	declared := len(r.mappings)
	for _, m := range r.mappings[:declared] {
		if m.Platform != from {
			continue
		}
		m.Platform = to
		r.mappings = append(r.mappings, m)
	}
	if len(r.mappings) == declared {
		return fmt.Errorf("engine: platform %q has no mappings to clone", from)
	}
	r.snap.Store(nil)
	return nil
}

// RewriteCosts replaces the cost model of every mapping a platform
// declares with wrap(old), returning how many mappings were rewritten.
// MappingFor returns the first exact match, so appending a new mapping
// cannot override an existing one — in-place rewrite is the supported
// way to perturb or instrument a platform's declared costs (the
// calibration replay experiment injects a deliberate mis-estimate this
// way and watches the calibrator correct it).
func (r *Registry) RewriteCosts(p PlatformID, wrap func(cost.Model) cost.Model) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.mappings {
		if r.mappings[i].Platform != p {
			continue
		}
		r.mappings[i].Cost = wrap(r.mappings[i].Cost)
		n++
	}
	r.snap.Store(nil)
	return n
}

// DescribeMappings renders the declarative mapping table — one line
// per (platform, operator kind, algorithm) with its context hint. The
// paper envisions mappings as first-class declarative data the
// optimizer consumes (§3.1, §8.1); this is that data, made inspectable.
func (r *Registry) DescribeMappings() string {
	s := r.view()
	var sb strings.Builder
	for _, id := range s.ids {
		for _, m := range s.mappings {
			if m.Platform != id {
				continue
			}
			fmt.Fprintf(&sb, "%-12s %-12s %-16s", m.Platform, m.Kind, m.Algo)
			if m.Hint != "" {
				fmt.Fprintf(&sb, " # %s", m.Hint)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
