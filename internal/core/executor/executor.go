// Package executor implements RHEEM's Executor (paper §4.2): it takes
// an execution plan from the multi-platform optimizer and is
// responsible for "(i) scheduling the resulting execution plan on the
// selected data processing frameworks, (ii) monitoring the progress of
// plan execution, (iii) coping with failures, and (iv) aggregating and
// returning results to users".
//
// Concretely it schedules the task atoms concurrently as their data
// dependencies resolve (see scheduler.go): independent atoms — the two
// scan legs of a join, sibling branches of a fan-out — overlap on a
// bounded worker pool, while every atom still sees exactly the input
// channels the sequential executor would have handed it. Channel
// conversions are inserted at every cross-platform edge (performing
// the data movement the optimizer priced), failed atom executions are
// retried up to a constant budget, loop atoms are unrolled by repeatedly
// executing the loop body's execution plan (charging the body
// platform's per-job overhead every iteration — the mechanism behind
// the paper's Figure 2), every step is published on the run's span
// stream (package trace), and metrics and the sink's records are
// aggregated.
//
// One Run is one run value (registry, defaulted options, context,
// tracer, result, audit ledger) and each execution plan it
// schedules — the top-level plan, every loop-body iteration — is a
// planScope over it; everything below Run is a method on one of the
// two.
package executor

import (
	"context"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
)

// retryBudget is how many times a failed atom is re-executed before
// its failure is final. An error marked engine.Fatal is never retried.
const retryBudget = 2

// auditFactor is how far, in either direction, an operator's observed
// output cardinality may be off the optimizer's estimate before the
// audit flags it — the misses that land in Result.Mismatches and
// trigger re-optimization.
const auditFactor = 8

// Options configures a run. It holds run settings only: what the plan
// was made under — pins and exclusions — is the plan's
// ExecutionPlan.Options, which the run and every re-plan read.
type Options struct {
	// Context cancels execution between (and inside) atoms.
	Context context.Context
	// Parallelism bounds how many task atoms of one plan are in flight
	// at once (default runtime.NumCPU()). It is the dispatcher's cap, not
	// a semaphore: 1 reproduces the sequential executor — atoms run one
	// at a time in topological order.
	Parallelism int
	// RetryBackoff is the base delay before the first re-execution;
	// subsequent attempts back off exponentially (doubling, capped at
	// 2s) with deterministic jitter. 0 selects the default (10ms); a
	// negative value disables the delay entirely (as the tests do).
	RetryBackoff time.Duration
	// AtomTimeout bounds each execution attempt of a single atom; an
	// attempt exceeding it fails with context.DeadlineExceeded and is
	// retried like any failure not marked engine.Fatal. 0 disables the
	// bound.
	AtomTimeout time.Duration
	// Pool, when set, is the host-wide bound on execution: every compute
	// atom holds one of its slots while it executes (loop atoms never
	// hold one — see pool.go for the no-deadlock argument). Inside an
	// atom, parallelism is the platform's own, on engine's helper
	// runtime, and takes no slot. Parallelism still caps this run's own
	// in-flight atoms; the pool bounds the total across every run
	// sharing it. nil means no cross-run bound — the single-shot
	// behavior.
	Pool *Pool
	// Tracer, when set, receives the run's span stream — subscribe a
	// trace.Consumer on it to monitor progress; callbacks are
	// serialized. nil gives the run a private tracer; either way
	// Result.Trace holds the collected spans and audit trail.
	Tracer *trace.Tracer
	// Calibration prices mid-run re-plans: they start from the plan's
	// own ExecutionPlan.Options, and this replaces its calibrator.
	// Nil prices them uncalibrated.
	Calibration *cost.Calibrator
}

func (o *Options) defaults() {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 10 * time.Millisecond
	} else if o.RetryBackoff < 0 {
		o.RetryBackoff = 0
	}
}

// Result aggregates a run's output and accounting.
type Result struct {
	// Records is the sink's output, converted to driver records.
	Records []data.Record
	// Metrics is the whole-plan aggregate. Its Wall is the run's
	// elapsed host time — under concurrent scheduling that is less
	// than the sum of the per-atom Wall values the spans carry.
	Metrics engine.Metrics
	// Mismatches lists the audit records the cardinality audit flagged
	// as gross estimation failures (loop body operators are audited on
	// their first iteration only) — a subset of Trace.Audits.
	Mismatches []trace.CardAudit
	// Reoptimized reports whether adaptive re-optimization replaced
	// the execution plan mid-run.
	Reoptimized bool
	// Failovers counts cross-platform failover re-plans performed
	// during the run (each quarantines at least one more platform, so
	// the count is bounded by the registry size).
	Failovers int
	// PlatformHealth is the circuit-breaker state at the end of the run,
	// from the registry's health tracker, of every platform whose breaker
	// is not Closed; nil when all are. An absent platform is Closed, the
	// zero BreakerState, so indexing it reads every platform right.
	PlatformHealth map[engine.PlatformID]engine.BreakerState
	// FinalPlan is the execution plan that finished the run — the
	// original one, or the re-optimized replacement.
	FinalPlan *optimizer.ExecutionPlan
	// Trace is the run's span trace and estimate-vs-actual audit
	// trail, always collected (spans are cheap next to executing an
	// atom). See rheem.WithTracing for the public surface.
	Trace *trace.Trace
}

// run is what one Run shares across its concurrently executing atoms
// and nested loop-body plans.
type run struct {
	reg  *engine.Registry
	opts Options // defaulted
	// ctx is opts.Context made cancellable: the first atom error cancels
	// it so in-flight siblings abort.
	ctx    context.Context
	cancel context.CancelFunc
	tr     *trace.Tracer // the run's span stream; serializes consumers

	mu  sync.Mutex // guards res, every plan's channel table, audited
	res *Result
	// audited marks, by operator ID, the exits the cardinality audit has
	// recorded: a loop body's on its first iteration only.
	audited []bool
	// excluded accumulates platforms ruled out by failover re-plans.
	// Only the top-level dispatcher touches it, and only while
	// quiesced, so it needs no lock. It only grows, which bounds the
	// failover loop by the registry size.
	excluded map[engine.PlatformID]bool
	// top is the scope of the plan Run was given, leased with the run.
	top planScope
}

// maxIDs bounds the ID tables a kept run state keeps (they grow together):
// one that served a wider plan is dropped.
const maxIDs = 4096

// runs is the free list of run states, at most four per P.
var runs = engine.FreeList[run]{PerP: 4, Keep: func(r *run) bool { return cap(r.audited) <= maxIDs }}

// release clears every slot of the finished run — its channels, the
// scheduler's nodes, the context, the tracer, the result — and puts the
// state on the free list: nothing of a finished job stays pinned by it.
func (r *run) release() {
	audited, t := r.audited, r.top
	clear(audited)
	clear(t.channels)
	clear(t.nodes[:cap(t.nodes)]) // a re-plan's graph may be the shorter
	clear(t.producer)
	clear(t.ready[:cap(t.ready)])
	*r = run{audited: audited, top: planScope{channels: t.channels, nodes: t.nodes, producer: t.producer, ready: t.ready}}
	runs.Put(r)
}

// planScope is one execution plan being scheduled within a run: the
// top-level plan, or one iteration of a loop body.
type planScope struct {
	*run
	ep *optimizer.ExecutionPlan // replaced by a re-plan
	// channels holds each operator's output by operator ID, sized from
	// the plan tree's ID bound; guarded by run.mu while atoms are in
	// flight.
	channels []*channel.Channel
	topLevel bool
	iter     int // enclosing loop iteration, -1 at the top level
	// flagged records that some atom's audit in this plan flagged a
	// gross cardinality miss. Owned by the plan's dispatcher goroutine.
	flagged bool
	// nodes, producer and ready are scheduleAtoms' graph, kept across
	// re-plans; the top scope's are leased with the run.
	nodes           []atomNode
	producer, ready []*atomNode
}

// recoverFatal is the executor's panic net, deferred wherever code the
// executor does not own — a converter, a loop condition, a driver-side
// reduce UDF, a platform that does not use engine.RunAtom — runs on one
// of its goroutines: the panic becomes an engine.Fatal carrying what
// was running and the stack, so it fails the job, not the process, and
// is never retried, failed over or counted against a platform's health.
func recoverFatal(what any, err *error) {
	if r := recover(); r != nil {
		*err = engine.Fatal(fmt.Errorf("executor: %v panicked: %v\n%s", what, r, debug.Stack()))
	}
}

// Run executes an optimized plan over the registry's platforms. The
// Result is never nil: a failed run returns, with its error, how far it
// got — FinalPlan, Failovers, Reoptimized and Mismatches — and no
// Records, PlatformHealth or Trace.
func Run(ep *optimizer.ExecutionPlan, reg *engine.Registry, opts Options) (res *Result, err error) {
	r := runs.Get()
	defer r.release() // deferred first, so it runs after every other step
	opts.defaults()
	ctx, cancel := context.WithCancel(opts.Context)
	defer cancel()
	// Every run notification flows through one span stream: the tracer
	// collects spans and the audit trail, and whoever monitors the run
	// is a consumer subscribed to it.
	tr := opts.Tracer
	if tr == nil {
		tr = trace.New()
	}
	res = &Result{FinalPlan: ep}
	ids := ep.Physical.IDBound()
	r.reg, r.opts, r.ctx, r.cancel, r.tr, r.res = reg, opts, ctx, cancel, tr, res
	r.audited = engine.Grown(r.audited, ids)
	top := &r.top
	top.run, top.ep, top.channels, top.topLevel, top.iter = r, ep, engine.Grown(top.channels, ids), true, -1
	// Atoms recover in runAtom, wherever it runs; this one covers the sink
	// materialization below, which runs converters on the caller's.
	defer recoverFatal("materializing the result", &err)

	start := time.Now()
	// Announce the plan and its atom count before scheduling starts, so
	// live-progress consumers know the denominator from the first span.
	tr.Start(ep.Physical.Name, len(ep.Atoms))
	// However runPlan ends, every atom has drained by then: the remaining
	// accesses are single-threaded.
	if err := top.runPlan(); err != nil {
		return res, err
	}
	sinkCh := top.channels[top.ep.Physical.SinkOp.ID]
	if sinkCh == nil {
		return res, fmt.Errorf("executor: sink produced no channel")
	}
	if _, res.Records, err = r.collect(sinkCh, &res.Metrics); err != nil {
		return res, fmt.Errorf("executor: materializing result: %w", err)
	}
	res.PlatformHealth = reg.Health().Snapshot()
	res.Metrics.Wall = time.Since(start)
	tr.PlanDone(res.Metrics)
	res.Trace = tr.Snapshot()
	return res, nil
}

// atomEstCost sums the optimizer's estimated cost over the atom's
// operators — the prediction the span's measured metrics audit.
func atomEstCost(ep *optimizer.ExecutionPlan, atom *engine.TaskAtom) time.Duration {
	var total time.Duration
	for _, op := range atomOps(atom) {
		total += ep.OpCosts[op.ID].Total()
	}
	return total
}

// atomOps lists the operators an atom stands for in its plan: a compute
// atom's own, a loop atom's loop operator.
func atomOps(atom *engine.TaskAtom) []*physical.Operator {
	if atom.Kind == engine.AtomLoop {
		return []*physical.Operator{atom.LoopOp}
	}
	return atom.Ops
}

// newAtomSpan allocates span sp with its KindEst: a compute atom's RAW
// estimated cost by operator kind, which the calibrator folds measured
// time against (raw, so its corrections never enter their own target): up
// to five kinds in the span's allocation, more in a slice of exactly that
// many. None for loops.
func newAtomSpan(ep *optimizer.ExecutionPlan, atom *engine.TaskAtom, sp trace.Span) *trace.Span {
	s := &struct {
		sp    trace.Span
		kinds [5]trace.KindCost
	}{sp: sp}
	if atom.Kind != engine.AtomCompute || len(ep.RawOpCosts) == 0 {
		return &s.sp
	}
	var seen uint32 // by plan.OpKind
	for _, op := range atom.Ops {
		seen |= 1 << op.Kind()
	}
	kinds := s.kinds[:0]
	if n := bits.OnesCount32(seen); n > len(s.kinds) {
		kinds = make([]trace.KindCost, 0, n)
	}
	for _, op := range atom.Ops {
		kind, ns := op.Kind().String(), int64(ep.RawOpCosts[op.ID].Total())
		if i := slices.IndexFunc(kinds, func(k trace.KindCost) bool { return k.Kind == kind }); i >= 0 {
			kinds[i].NS += ns
		} else {
			kinds = append(kinds, trace.KindCost{Kind: kind, NS: ns})
		}
	}
	s.sp.KindEst = slices.Clip(kinds)
	return &s.sp
}

// atomDone reports whether every output the atom owes the rest of the
// plan is already available.
func atomDone(atom *engine.TaskAtom, channels []*channel.Channel) bool {
	if atom.Kind == engine.AtomLoop {
		return channels[atom.LoopOp.ID] != nil
	}
	if len(atom.Exits) == 0 {
		return false
	}
	for _, ex := range atom.Exits {
		if channels[ex.ID] == nil {
			return false
		}
	}
	return true
}

// reoptimize re-plans the scope's physical plan with observed
// cardinalities, starting from the options the plan was made with:
// operators whose outputs exist keep their platforms and are frozen
// into skippable atoms; everything downstream is re-costed and may move
// to a different platform, within the caller's pins and exclusions. A
// failover re-plan (fo non-nil) first rules out the failed platform and
// whatever else the breaker holds open, so no remaining operator is
// assigned to them — a caller's pin to one of them, FixedPlatform
// included, gives way. The caller must have quiesced all in-flight
// atoms — reoptimize reads the channel map unlocked.
func (p *planScope) reoptimize(fo *failoverError) (*optimizer.ExecutionPlan, error) {
	if fo != nil {
		if p.excluded == nil {
			p.excluded = map[engine.PlatformID]bool{}
		}
		p.excluded[fo.atom.Platform] = true
		for _, id := range p.reg.Health().QuarantinedPlatforms() {
			p.excluded[id] = true
		}
	}
	opts := p.ep.Options // the caller's; its maps are read, never written
	excluded := make(map[engine.PlatformID]bool, len(opts.ExcludePlatforms)+len(p.excluded))
	maps.Copy(excluded, opts.ExcludePlatforms)
	maps.Copy(excluded, p.excluded)
	forced := make(map[int]engine.PlatformID, len(opts.ForcedAssignments))
	for id, pl := range opts.ForcedAssignments {
		if !excluded[pl] {
			forced[id] = pl
		}
	}
	if excluded[opts.FixedPlatform] {
		opts.FixedPlatform = ""
	}
	overrides := map[int]int64{}
	for id, ch := range p.channels {
		if ch != nil && ch.Records >= 0 {
			overrides[id] = ch.Records
		}
	}
	frozen := map[int]bool{}
	for _, atom := range p.ep.Atoms {
		if !atomDone(atom, p.channels) {
			continue
		}
		for _, op := range atomOps(atom) {
			frozen[op.ID] = true
			forced[op.ID] = p.ep.Assignment[op.ID]
		}
	}
	opts.DisableRules = true // structure is fixed mid-run
	opts.CardOverrides, opts.Frozen = overrides, frozen
	opts.ForcedAssignments, opts.ExcludePlatforms = forced, excluded
	opts.Calibration = p.opts.Calibration
	newEP, err := optimizer.Optimize(p.ep.Physical, p.reg, opts)
	if err != nil && fo != nil {
		// No capable platform remains for some operator: the run
		// fails, reporting both the failure and the dead end.
		return nil, fmt.Errorf("executor: failover from platform %q found no capable platform: %v (original failure: %w)",
			fo.atom.Platform, err, fo.err)
	}
	if err != nil {
		return nil, fmt.Errorf("executor: re-optimization: %w", err)
	}
	return newEP, nil
}

// gatherInputs collects the atom's external inputs from the plan's
// channel table, converting each to the format its consumer takes it in
// (engine.Registry.InputFormat: the data movement the optimizer
// priced), and records the conversion volume and formats on the span.
// The metrics returned are the movement's, for the caller to charge.
func (p *planScope) gatherInputs(sp *trace.Span, platform engine.Platform, atom *engine.TaskAtom) (engine.AtomInputs, engine.Metrics, error) {
	var inputs engine.AtomInputs // made at the first external input
	var move engine.Metrics
	for pos, op := range atom.Ops {
		for slot, in := range op.Inputs {
			if atom.Contains(in.ID) {
				continue
			}
			p.mu.Lock()
			src := p.channels[in.ID]
			p.mu.Unlock()
			if src == nil {
				return nil, move, fmt.Errorf("executor: %s needs output of op %d which is not available", atom, in.ID)
			}
			// No path to either format: Convert reports it.
			want, _, _ := p.reg.InputFormat(src.Format, platform, op, src.Bytes)
			conv, cost, steps, err := p.reg.Channels().Convert(src, want)
			if err != nil {
				return nil, move, fmt.Errorf("executor: feeding %s: %w", atom, err)
			}
			move.Sim += cost
			move.Conversions += steps
			if steps > 0 {
				move.MovedBytes += src.Bytes
			}
			if inputs == nil {
				inputs = engine.NewAtomInputs(atom)
			}
			inputs[pos][slot] = conv
			// The format choice per external input — the span-level
			// evidence of columnar (batch) adoption.
			if sp.InFormats == nil {
				sp.InFormats = map[string]int{}
			}
			sp.InFormats[string(want)]++
		}
	}
	sp.ConvTime = move.Sim
	sp.ConvBytes = move.MovedBytes
	sp.ConvSteps = move.Conversions
	return inputs, move, nil
}

// runComputeAtom gathers external inputs, executes the atom with
// retries, and publishes exit channels. It may run concurrently with
// other atoms: the shared channel table and Result are touched only under
// run.mu, and the platform call itself runs unlocked
// (Platform.ExecuteAtom must be safe for concurrent calls — see
// engine.Platform). It returns what its span (opened and closed by
// runAtom) ends with: the metrics charged, the audit records of its
// exits on success, the failure otherwise.
func (p *planScope) runComputeAtom(sp *trace.Span, atom *engine.TaskAtom) (engine.Metrics, []trace.CardAudit, error) {
	platform, ok := p.reg.Platform(atom.Platform)
	if !ok {
		return engine.Metrics{}, nil, fmt.Errorf("executor: unknown platform %q", atom.Platform)
	}
	inputs, move, err := p.gatherInputs(sp, platform, atom)
	if err != nil {
		return move, nil, err
	}
	health := p.reg.Health()
	var exits []*channel.Channel
	var m engine.Metrics
	for attempt := 0; ; attempt++ {
		attStart := p.tr.Now()
		since := health.FailureSeq()
		exits, m, err = p.attempt(platform, atom, inputs)
		att := trace.Attempt{Number: attempt + 1, Wall: p.tr.Now().Sub(attStart)}
		if err == nil {
			sp.Attempts = append(sp.Attempts, att)
			health.ReportSuccess(atom.Platform, since)
			break
		}
		fatal := engine.IsFatal(err)
		att.Err = err.Error()
		att.Fatal = fatal
		sp.Attempts = append(sp.Attempts, att)
		// A cancelled run is not an atom failure: return the context
		// error itself, untouched — it must not count against the retry
		// budget, the platform's health, or read as "failed after
		// retries" in the run error.
		if ctxErr := p.ctx.Err(); ctxErr != nil {
			m.Add(move)
			return m, nil, ctxErr
		}
		if !fatal {
			health.ReportFailure(atom.Platform)
		}
		if fatal || attempt >= retryBudget {
			break
		}
		move.Retries++
		sp.Retries++
		p.tr.Retry(sp, attempt+1, m, err)
		p.charge(m) // failed attempts still cost time
		if ctxErr := p.backoff(atom.ID, attempt); ctxErr != nil {
			return move, nil, ctxErr
		}
	}
	m.Add(move)
	if err != nil {
		p.charge(m) // the final attempt and its retries still cost time
		err = fmt.Errorf("executor: %s failed after %d attempt(s): %w", atom, move.Retries+1, err)
		if !engine.IsFatal(err) && health.Quarantined(atom.Platform) {
			err = &failoverError{atom: atom, err: err}
		}
		return m, nil, err
	}
	if len(exits) != len(atom.Exits) {
		p.charge(m)
		return m, nil, engine.Fatal(fmt.Errorf("executor: %s returned %d exits for its %d", atom, len(exits), len(atom.Exits)))
	}
	p.mu.Lock()
	p.res.Metrics.Add(m)
	for i, ex := range atom.Exits {
		p.channels[ex.ID] = exits[i]
	}
	audits := p.auditCardsLocked(atom, exits)
	p.mu.Unlock()
	return m, audits, nil
}

// collect brings a channel driver-side: converted to the hub Collection
// format, with the movement charged to m, and read as records.
func (r *run) collect(ch *channel.Channel, m *engine.Metrics) (*channel.Channel, []data.Record, error) {
	conv, cost, steps, err := r.reg.Channels().Convert(ch, channel.Collection)
	if err != nil {
		return nil, nil, err
	}
	m.Sim += cost
	m.Conversions += steps
	recs, err := conv.AsCollection()
	return conv, recs, err
}

// charge adds metrics to the run's aggregate.
func (r *run) charge(m engine.Metrics) {
	r.mu.Lock()
	r.res.Metrics.Add(m)
	r.mu.Unlock()
}

// auditCardsLocked compares observed exit cardinalities against the
// optimizer's estimates and returns one audit record per audited exit,
// flagged or not, for the tracer; the flagged ones also land in
// Result.Mismatches. The caller holds run.mu.
func (p *planScope) auditCardsLocked(atom *engine.TaskAtom, exits []*channel.Channel) []trace.CardAudit {
	est := p.ep.Estimates
	if est == nil {
		return nil
	}
	var audits []trace.CardAudit
	for i, ex := range atom.Exits {
		ch := exits[i]
		if ch == nil || ch.Records < 0 || p.audited[ex.ID] {
			continue
		}
		p.audited[ex.ID] = true
		estimate := est.Cards[ex.ID]
		actual := ch.Records
		// max/min with zero clamped to 1, so the factor is always ≥ 1.
		factor := float64(max(estimate, actual, 1)) / float64(max(min(estimate, actual), 1))
		rawEstimate := estimate
		if p.ep.RawEstimates != nil {
			rawEstimate = p.ep.RawEstimates.Cards[ex.ID]
		}
		a := trace.CardAudit{
			OpID: ex.ID, OpName: ex.Name(), Platform: atom.Platform,
			Estimated: estimate, Actual: actual, ErrFactor: factor,
			Flagged: factor > auditFactor, EstCost: p.ep.OpCosts[ex.ID].Total(),
			OpKind: ex.Kind().String(), RawEstimated: rawEstimate,
		}
		audits = append(audits, a)
		if a.Flagged {
			p.res.Mismatches = append(p.res.Mismatches, a)
		}
	}
	return audits
}

// runLoop unrolls a Repeat/DoWhile atom: each iteration executes the
// body's execution plan with the LoopInput channel bound to the
// current state, then feeds the body output back as the next state.
// Iterations stay strictly sequential, but each iteration's body plan
// is a planScope of its own under the same concurrent scheduler. The
// whole unrolled loop is one KindLoop span (sp); body atoms get their
// own spans tagged with the iteration they ran in. flagged reports
// that a body atom's audit flagged a gross cardinality miss.
func (p *planScope) runLoop(sp *trace.Span, atom *engine.TaskAtom) (flagged bool, err error) {
	loopOp := atom.LoopOp
	body := p.ep.LoopBodies[loopOp.ID]
	if body == nil {
		return false, fmt.Errorf("executor: loop %s has no body plan", loopOp.Name())
	}
	loopInput := findLoopInput(body)
	if loopInput == nil {
		return false, fmt.Errorf("executor: loop body of %s has no LoopInput", loopOp.Name())
	}
	p.mu.Lock()
	state := p.channels[loopOp.Inputs[0].ID]
	p.mu.Unlock()
	if state == nil {
		return false, fmt.Errorf("executor: loop %s input not available", loopOp.Name())
	}

	lop := loopOp.Logical
	maxIter := lop.Times()
	if lop.Kind() == plan.KindDoWhile {
		maxIter = lop.MaxIter()
		if maxIter <= 0 {
			maxIter = 100
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		it := &planScope{run: p.run, ep: body, channels: make([]*channel.Channel, body.Physical.IDBound()), iter: iter}
		it.channels[loopInput.ID] = state
		err := it.runPlan()
		flagged = flagged || it.flagged
		if err != nil {
			return flagged, fmt.Errorf("executor: loop %s iteration %d: %w", loopOp.Name(), iter, err)
		}
		state = it.channels[body.Physical.SinkOp.ID]
		if state == nil {
			return flagged, fmt.Errorf("executor: loop %s iteration %d produced no output", loopOp.Name(), iter)
		}
		p.tr.Loop(sp, iter)

		if lop.Kind() == plan.KindDoWhile {
			// Evaluate the condition on driver-side records, like a
			// Spark driver collecting loop state.
			var move engine.Metrics
			conv, recs, err := p.collect(state, &move)
			if err != nil {
				return flagged, fmt.Errorf("executor: loop %s condition input: %w", loopOp.Name(), err)
			}
			p.charge(move)
			cont, err := lop.Cond()(iter, recs)
			if err != nil {
				return flagged, fmt.Errorf("executor: loop %s condition: %w", loopOp.Name(), err)
			}
			if !cont {
				state = conv
				break
			}
		}
	}
	p.mu.Lock()
	p.channels[loopOp.ID] = state
	p.mu.Unlock()
	return flagged, nil
}

func findLoopInput(body *optimizer.ExecutionPlan) *physical.Operator {
	for _, op := range body.Physical.Ops {
		if op.Kind() == plan.KindLoopInput {
			return op
		}
	}
	return nil
}
