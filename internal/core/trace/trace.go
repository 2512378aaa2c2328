// Package trace is the cross-layer observability subsystem: it records
// what the executor actually did — per-atom spans with queue wait,
// per-attempt latency, conversion volume and the chosen platform — and
// what the optimizer believed would happen — an estimate-vs-actual
// audit of cardinalities and operator costs. The paper's optimizer
// chooses platforms from cost models and inter-platform movement costs
// (§4.2); progressive/adaptive optimization (RHEEMix) needs *measured*
// cardinalities and runtimes fed back. This package is that feedback
// channel, and the raw material for any future learned cost model.
//
// The Tracer is a synchronous span stream: the executor publishes span
// lifecycle events to the tracer's Sink (the metrics hub's run) and to
// any number of Consumers (rheem.WithMonitor). Both are called under the
// tracer's lock, so neither needs synchronization of its own. Finished
// spans and audit records accumulate in the tracer and are handed over,
// not copied, as an immutable Trace snapshot, which can be dumped as
// flame-friendly JSON (one line per span).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"rheem/internal/core/engine"
)

// Span kinds: a platform-executed compute atom, a loop the executor
// unrolls itself, or one shard of a sharded atom execution.
const (
	KindAtom = "atom"
	KindLoop = "loop"
	// KindShard spans are children of a sharded KindAtom span: one per
	// shard per attempt, tagged with the shard index. Skew shows up as
	// spread between sibling shard spans.
	KindShard = "shard"
)

// Service-layer span kinds, emitted by the job service rather than the
// executor: the phases of a job's life around its engine run. They are
// correlated with the run's atom spans by run ID (the flight recorder's
// Annotate) and by the Job/Tenant span fields, so a job's path from
// POST /jobs to its result reads as one trace tree.
const (
	// KindAdmission covers submission to the admission ack.
	KindAdmission = "admission"
	// KindQueue covers the admission ack to dispatch — pending-queue
	// residency under the service's quotas and round-robin.
	KindQueue = "queue"
	// KindDispatch covers dispatch to the job's terminal state: the
	// engine run plus result digesting.
	KindDispatch = "dispatch"
)

// Attempt is one execution attempt of an atom. A span holds every
// attempt, so per-attempt latency and the error that triggered each
// retry stay visible after the run.
type Attempt struct {
	// Number is 1-based and strictly increasing within a span.
	Number int `json:"number"`
	// Wall is the attempt's measured host time.
	Wall time.Duration `json:"wall_ns"`
	// Err is the attempt's failure, empty on success.
	Err string `json:"error,omitempty"`
	// Fatal marks an error the executor will never retry.
	Fatal bool `json:"fatal,omitempty"`
}

// Span records one scheduled unit of work: a task atom execution
// (including all its retry attempts) or a whole unrolled loop. Times
// are stamped by the tracer's clock so tests can inject a fake one.
type Span struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"` // KindAtom or KindLoop
	// AtomID is the task atom's ID within its execution plan.
	AtomID int `json:"atom_id"`
	// Name is the atom's rendered operator chain.
	Name string `json:"name"`
	// Platform is the platform the atom was assigned to.
	Platform engine.PlatformID `json:"platform"`
	// Plan names the execution plan the span ran in — the top-level
	// plan, or a loop body's plan.
	Plan string `json:"plan"`
	// Iteration is the enclosing loop iteration for loop-body spans,
	// -1 at the top level.
	Iteration int `json:"iteration"`
	// Shard is the 0-based shard index on KindShard spans, -1 otherwise.
	Shard int `json:"shard"`
	// Shards is the intra-atom fan-out width: on a sharded KindAtom span
	// the number of shards the execution split into, and on a KindShard
	// span the parent's total shard count. 0 means unsharded.
	Shards int `json:"shards,omitempty"`
	// Job and Tenant tag service-layer spans (admission, queue,
	// dispatch) with the job they belong to — the correlation key that
	// joins a job's service-side phases to its engine run's atom spans.
	// Empty on executor-emitted spans.
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`

	StartedAt time.Time `json:"started_at"`
	EndedAt   time.Time `json:"ended_at"`
	// QueueWait is how long the atom sat ready (all inputs available)
	// before a worker slot picked it up — scheduler pressure.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// Wall is EndedAt − StartedAt: input conversion plus every attempt.
	Wall time.Duration `json:"wall_ns"`

	// ConvTime/ConvBytes/ConvSteps account the cross-platform input
	// conversions performed to feed this atom (modelled movement time,
	// bytes moved, converter steps).
	ConvTime  time.Duration `json:"conv_ns"`
	ConvBytes int64         `json:"conv_bytes"`
	ConvSteps int           `json:"conv_steps"`

	// InFormats counts the atom's external inputs by the channel format
	// the executor delivered them in ("collection", "batch", "table",
	// ...) — the runtime record of the per-input row-vs-batch format
	// choice.
	InFormats map[string]int `json:"in_formats,omitempty"`

	// EstCost is the optimizer's estimated cost total for the atom's
	// operators — compare against Metrics.Sim for estimator error.
	EstCost time.Duration `json:"est_cost_ns"`
	// KindEst splits the atom's RAW (uncalibrated) estimated cost by
	// operator kind, in nanoseconds. The cost calibrator folds measured
	// atom time against these — raw, so the learning target never moves
	// as calibration itself kicks in. Empty on spans the optimizer did
	// not cost (loops, service phases).
	KindEst KindCosts `json:"kind_est_ns,omitempty"`

	Attempts []Attempt `json:"attempts,omitempty"`
	// Retries counts attempts that were retried (len(Attempts)-1 for
	// an eventually successful span).
	Retries int `json:"retries"`
	// Metrics is the final attempt's platform metrics plus conversion
	// accounting, as charged to the run.
	Metrics engine.Metrics `json:"metrics"`
	// Err is the span's final failure, empty on success.
	Err string `json:"error,omitempty"`

	// Atom is the executed task atom, for consumers that want the full
	// structure. Not serialized.
	Atom *engine.TaskAtom `json:"-"`
}

// Failed reports whether the span ended in an error.
func (s *Span) Failed() bool { return s.Err != "" }

// KindCost is one operator kind's share of an atom's estimated cost.
type KindCost struct {
	Kind string
	NS   int64
}

// KindCosts is a span's per-kind cost split, a kind's entry where it is
// first seen. Its JSON is a map's object, {"Map": 11}, in sorted order.
type KindCosts []KindCost

// MarshalJSON writes the split as a JSON object keyed by kind.
func (k KindCosts) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, len(k))
	for _, c := range k {
		m[c.Kind] += c.NS
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads a JSON object keyed by kind.
func (k *KindCosts) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	err := json.Unmarshal(b, &m)
	for kind, ns := range m {
		*k = append(*k, KindCost{Kind: kind, NS: ns})
	}
	sort.Slice(*k, func(i, j int) bool { return (*k)[i].Kind < (*k)[j].Kind })
	return err
}

// CardAudit is one estimate-vs-actual record of the optimizer audit
// trail: for an operator whose output crossed an atom boundary, the
// estimated and observed output cardinality plus the operator's
// estimated cost. Flagged marks gross misestimates (off by more than
// the executor's audit factor, 8×) — the ones that land in
// Result.Mismatches and trigger re-optimization.
type CardAudit struct {
	OpID      int               `json:"op_id"`
	OpName    string            `json:"op"`
	Platform  engine.PlatformID `json:"platform"`
	Estimated int64             `json:"estimated"`
	Actual    int64             `json:"actual"`
	// ErrFactor is max(est,act)/min(est,act) with zero clamped to 1 —
	// always ≥ 1; 1 means the estimate was exact.
	ErrFactor float64       `json:"err_factor"`
	Flagged   bool          `json:"flagged"`
	EstCost   time.Duration `json:"est_cost_ns"`
	// OpKind is the operator's logical kind — the cardinality
	// calibrator's cell key.
	OpKind string `json:"op_kind,omitempty"`
	// RawEstimated is the uncalibrated rule-derived estimate (equal to
	// Estimated when calibration is off): what the calibrator learns
	// against, so its own corrections never feed back into the target.
	RawEstimated int64 `json:"raw_estimated,omitempty"`
}

// EventKind classifies span-stream events.
type EventKind int

// Span-stream event kinds, in the order a healthy span emits them.
const (
	// SpanStart opens a span: the atom left the ready queue and is
	// about to convert inputs and execute.
	SpanStart EventKind = iota
	// SpanRetry reports a failed attempt that will be re-executed.
	SpanRetry
	// SpanEnd closes a span, successfully or with Err set.
	SpanEnd
	// LoopIteration reports one completed iteration of a loop span.
	LoopIteration
	// Replan reports adaptive re-optimization replacing the remaining
	// plan.
	Replan
	// Failover reports a cross-platform failover re-plan.
	Failover
	// PlanDone closes the run with its aggregate metrics.
	PlanDone
	// RunStart announces a (possibly replacement) execution plan and
	// its scheduled atom count — the denominator live progress
	// reporting divides by. Emitted once at run start and again after
	// every failover or re-optimization swaps the plan.
	RunStart
	// AuditRecords delivers a batch of estimate-vs-actual audit
	// records as they are produced, so live consumers (the metrics
	// collector) see them without waiting for the Trace snapshot.
	AuditRecords
)

// Event is one notification on the span stream.
type Event struct {
	Kind EventKind
	// Span is the subject span (nil for Replan, Failover and PlanDone).
	Span *Span
	// Atom identifies the failed execution on Failover events, where
	// the triggering span has already ended.
	Atom *engine.TaskAtom
	// Attempt is the failing attempt number on SpanRetry events.
	Attempt int
	// Iteration is the completed iteration on LoopIteration events.
	Iteration int
	// Metrics carries attempt metrics (SpanRetry, SpanEnd) or the run
	// aggregate (PlanDone).
	Metrics engine.Metrics
	Err     error
	// Excluded lists quarantined platforms on Failover events.
	Excluded []engine.PlatformID
	// Plan and TotalAtoms describe the announced plan on RunStart
	// events.
	Plan       string
	TotalAtoms int
	// Audits carries the batch on AuditRecords events.
	Audits []CardAudit
}

// Consumer observes span-stream events. Callbacks are serialized by
// the tracer and must not block for long or re-enter the tracer; a
// consumer should read event fields during the callback rather than
// retain the Span pointer, which its owner keeps mutating until
// SpanEnd.
type Consumer func(Event)

// Sink is a Consumer with state of its own (the metrics hub's run) that
// costs no closure to wire. The tracer calls it first, under the same rules.
type Sink interface{ Consume(Event) }

// Tracer collects a run's spans and audit records and fans events out
// to its sink and consumers. All methods are safe for concurrent use —
// the executor publishes from many scheduler goroutines at once.
type Tracer struct {
	mu        sync.Mutex
	now       func() time.Time
	sink      Sink
	consumers []Consumer
	spans     []*Span
	audits    []CardAudit
	nextID    int
}

// New returns a tracer with the given initial consumers.
func New(consumers ...Consumer) *Tracer { return new(Tracer).Init(nil, consumers...) }

// Init readies a zero Tracer held by value with its sink (nil for none)
// and consumers, and returns it. Empty lists are non-nil: they encode as [].
func (t *Tracer) Init(sink Sink, consumers ...Consumer) *Tracer {
	t.now, t.sink, t.consumers = time.Now, sink, consumers
	t.spans, t.audits = []*Span{}, []CardAudit{}
	return t
}

// SetClock injects a clock (tests only).
func (t *Tracer) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// Now reads the tracer's clock, so callers stamping their own
// timestamps (e.g. scheduler ready times) stay on the injected clock.
func (t *Tracer) Now() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now()
}

func (t *Tracer) emitLocked(e Event) {
	if t.sink != nil {
		t.sink.Consume(e)
	}
	for _, c := range t.consumers {
		c(e)
	}
}

// Start announces the execution plan about to be scheduled and its
// atom count. The executor emits it at run start and again whenever a
// failover or adaptive re-optimization installs a replacement plan.
func (t *Tracer) Start(plan string, totalAtoms int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(Event{Kind: RunStart, Plan: plan, TotalAtoms: totalAtoms})
}

// Begin opens a span: assigns its ID, stamps StartedAt, derives
// QueueWait from readyAt (when non-zero) and emits SpanStart. The
// caller owns the span until End; only the owning goroutine may
// mutate it.
func (t *Tracer) Begin(sp *Span, readyAt time.Time) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sp.ID = t.nextID
	sp.StartedAt = t.now()
	if !readyAt.IsZero() {
		if w := sp.StartedAt.Sub(readyAt); w > 0 {
			sp.QueueWait = w
		}
	}
	t.emitLocked(Event{Kind: SpanStart, Span: sp})
	return sp
}

// Retry records a failed attempt that will be re-executed and emits
// SpanRetry. The attempt itself must already be appended to the span
// by its owner.
func (t *Tracer) Retry(sp *Span, attempt int, m engine.Metrics, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(Event{Kind: SpanRetry, Span: sp, Attempt: attempt, Metrics: m, Err: err})
}

// End closes a span: stamps EndedAt/Wall, records the final metrics
// and error, stores the span and emits SpanEnd. After End the span is
// immutable.
func (t *Tracer) End(sp *Span, m engine.Metrics, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.EndedAt = t.now()
	sp.Wall = sp.EndedAt.Sub(sp.StartedAt)
	sp.Metrics = m
	if err != nil {
		sp.Err = err.Error()
	}
	t.spans = append(t.spans, sp)
	t.emitLocked(Event{Kind: SpanEnd, Span: sp, Metrics: m, Err: err})
}

// Loop emits a LoopIteration event for an open loop span.
func (t *Tracer) Loop(sp *Span, iteration int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(Event{Kind: LoopIteration, Span: sp, Iteration: iteration})
}

// Replan emits a Replan event (adaptive re-optimization).
func (t *Tracer) Replan() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(Event{Kind: Replan})
}

// Failover emits a Failover event for the atom whose failure triggered
// the cross-platform re-plan.
func (t *Tracer) Failover(atom *engine.TaskAtom, err error, excluded []engine.PlatformID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(Event{Kind: Failover, Atom: atom, Err: err, Excluded: excluded})
}

// PlanDone emits the run-completion event with the aggregate metrics.
func (t *Tracer) PlanDone(m engine.Metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(Event{Kind: PlanDone, Metrics: m})
}

// Audit appends estimate-vs-actual records to the audit trail and
// emits them to consumers as one AuditRecords event. An empty trail
// adopts the caller's slice: the caller must not write to it again.
func (t *Tracer) Audit(records ...CardAudit) {
	if len(records) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.audits) == 0 {
		t.audits = records
	} else {
		t.audits = append(t.audits, records...)
	}
	t.emitLocked(Event{Kind: AuditRecords, Audits: records})
}

// Snapshot exports the finished spans and audit records collected so
// far: the tracer's own slices, capped, so later End and Audit calls
// and appends to the snapshot never meet. Every span it holds has
// ended, so it is safe to read (and serialize) concurrently.
func (t *Tracer) Snapshot() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{Spans: slices.Clip(t.spans), Audits: slices.Clip(t.audits)}
}

// Trace is an immutable export of a run's spans and audit trail.
type Trace struct {
	Spans  []*Span     `json:"spans"`
	Audits []CardAudit `json:"audits"`
}

// SpansOn returns the spans executed on the given platform.
func (tr *Trace) SpansOn(id engine.PlatformID) []*Span {
	var out []*Span
	for _, sp := range tr.Spans {
		if sp.Platform == id {
			out = append(out, sp)
		}
	}
	return out
}

// Platforms lists the distinct platforms the trace's spans ran on, in
// first-seen order — a failover run shows both the dead platform and
// its survivors.
func (tr *Trace) Platforms() []engine.PlatformID {
	seen := map[engine.PlatformID]bool{}
	var out []engine.PlatformID
	for _, sp := range tr.Spans {
		if !seen[sp.Platform] {
			seen[sp.Platform] = true
			out = append(out, sp.Platform)
		}
	}
	return out
}

// JSONSchema is the version stamped into every WriteJSON line, so
// downstream tooling can detect format changes. Bump it whenever a
// line's shape changes incompatibly.
//
// v2 added the service-layer span kinds (admission/queue/dispatch),
// the job/tenant correlation fields, and in_formats (the executor's
// per-consumer channel format choice).
//
// v3 added the cost-calibration feedback fields: kind_est_ns on spans
// (raw per-kind estimated cost split) and op_kind / raw_estimated on
// audit records.
const JSONSchema = 3

// WriteJSON dumps the trace as JSON lines — one object per span, then
// one per audit record, each tagged with "schema" and "type" fields.
// The format is flame-friendly: every line is self-contained, with
// start/end stamps and durations in nanoseconds.
func (tr *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	type spanLine struct {
		Schema int    `json:"schema"`
		Type   string `json:"type"`
		*Span
	}
	for _, sp := range tr.Spans {
		if err := enc.Encode(spanLine{Schema: JSONSchema, Type: "span", Span: sp}); err != nil {
			return fmt.Errorf("trace: encoding span %d: %w", sp.ID, err)
		}
	}
	type auditLine struct {
		Schema int    `json:"schema"`
		Type   string `json:"type"`
		CardAudit
	}
	for _, a := range tr.Audits {
		if err := enc.Encode(auditLine{Schema: JSONSchema, Type: "audit", CardAudit: a}); err != nil {
			return fmt.Errorf("trace: encoding audit of op %d: %w", a.OpID, err)
		}
	}
	return nil
}
