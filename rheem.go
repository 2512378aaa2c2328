// Package rheem is a Go implementation of RHEEM, the cross-platform
// data analytics system envisioned in "Road to Freedom in Big Data
// Analytics" (Agrawal et al., EDBT 2016).
//
// RHEEM frees analytic applications from being tied to a single data
// processing platform. Tasks are written once against logical
// operators (UDF templates over data quanta); a multi-platform
// optimizer translates them through platform-independent physical
// operators into execution operators on the platform — or combination
// of platforms — predicted to be fastest, moving data across platform
// boundaries through priced conversion channels.
//
// This implementation bundles three platforms: a single-node in-process
// engine, a simulated Spark-like distributed engine, and a mini
// relational engine (see DESIGN.md for the substitution rationale).
// New platforms plug in through the engine.Platform SPI plus
// declarative operator mappings, without touching the optimizer.
//
// # Quick start
//
//	ctx, _ := rheem.NewContext(rheem.Config{})
//	job := ctx.NewJob("wordcount")
//	out, _, err := job.ReadCollection(words).
//		ReduceByKey(plan.FieldKey(0), countReducer).
//		Collect()
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of the paper's figures.
package rheem

import (
	"context"
	"slices"
	"time"

	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/metrics"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// Config is the simulated Spark cluster's profile. Every context
// registers all three bundled platforms; the single-node and relational
// engines have no settings. To keep a run off a platform, pass
// WithExcludedPlatforms.
type Config struct {
	Spark sparksim.Config

	// Columnar is ignored.
	//
	// Deprecated: vectorized batch execution is no longer a mode. An
	// operator built with a column-hint helper (plan.FilterWhere,
	// ProjectCols, AggregateCols) always runs the single-node engine's
	// columnar kernels, and one built from a plain UDF always runs row
	// by row (see DESIGN.md §9). The field remains only so callers that
	// still set it keep compiling; nothing reads it.
	Columnar bool
}

// ContextOption customises a Context beyond the platform Config —
// today, live telemetry: where (and whether) to serve monitoring
// endpoints, and which telemetry hub to feed.
type ContextOption func(*ctxOptions)

type ctxOptions struct {
	metricsAddr string
	hub         *metrics.Hub
	recorder    *profile.Recorder
	calibrator  *cost.Calibrator
}

// WithMetricsAddr starts the context's embedded monitoring server on
// addr (":0" picks a free port): /metrics serves Prometheus text
// exposition, /runs live per-Execute progress as JSON, and
// /debug/pprof the Go runtime profiles. Stop it with Context.Close.
func WithMetricsAddr(addr string) ContextOption {
	return func(o *ctxOptions) { o.metricsAddr = addr }
}

// WithTelemetryHub feeds this context's telemetry into an existing
// hub instead of a private one — how several sequential or concurrent
// contexts (an experiment harness's, say) share one monitoring server.
func WithTelemetryHub(h *metrics.Hub) ContextOption {
	return func(o *ctxOptions) { o.hub = h }
}

// WithFlightRecorder attaches a run flight recorder to the context's
// hub: every Execute's span trace is folded into a per-run Profile
// (critical path, queue/compute/conversion/retry attribution, Perfetto
// export) kept in the recorder's bounded history and served by the
// monitoring endpoints /runs/{id}/profile and /runs/{id}/trace.json,
// keyed by Report.RunID.
func WithFlightRecorder(rec *profile.Recorder) ContextOption {
	return func(o *ctxOptions) { o.recorder = rec }
}

// WithCalibration attaches a cost calibrator to the context's hub,
// closing the optimizer's audit loop: every Execute folds its
// completed run's estimate-vs-actual cost and cardinality residuals
// into the calibrator, and every optimization (first plan, adaptive
// re-optimization, failover re-plan) multiplies its model costs by the
// learned per-(operator kind, platform) correction factors — so
// platform choices improve with traffic instead of relying on
// hand-set constants. Pass a calibrator restored with json.Unmarshal
// from a document it wrote earlier (its MarshalJSON) to keep learning
// across restarts, or share one calibrator between
// contexts (via a shared hub or the same calibrator value) to pool
// their traffic. Inspect it at GET /calibration and through the
// rheem_calibration_* metrics.
//
//	cal := cost.NewCalibrator(cost.CalibratorConfig{})
//	ctx, _ := rheem.NewContext(rheem.Config{}, rheem.WithCalibration(cal))
func WithCalibration(cal *cost.Calibrator) ContextOption {
	return func(o *ctxOptions) { o.calibrator = cal }
}

// Context owns the platform registry and is the entry point for
// building and executing jobs. A Context is safe to reuse across jobs.
type Context struct {
	reg    *engine.Registry
	hub    *metrics.Hub
	monSrv *metrics.Server
}

// NewContext registers the three bundled platforms and their mappings.
func NewContext(cfg Config, opts ...ContextOption) (*Context, error) {
	var co ctxOptions
	for _, o := range opts {
		o(&co)
	}
	c := &Context{reg: engine.NewRegistry(), hub: co.hub}
	if c.hub == nil {
		c.hub = metrics.NewHub()
	}
	if _, err := javaengine.Register(c.reg); err != nil {
		return nil, err
	}
	if _, err := sparksim.Register(c.reg, cfg.Spark); err != nil {
		return nil, err
	}
	if _, err := relengine.Register(c.reg); err != nil {
		return nil, err
	}
	// Scrape-time state — breaker gauges and transition counters,
	// conversion traffic — comes straight from the live registries.
	c.hub.BindEngine(c.reg)
	c.hub.BindChannels(c.reg.Channels())
	if co.recorder != nil {
		c.hub.SetFlightRecorder(co.recorder)
	}
	if co.calibrator != nil {
		c.hub.SetCalibrator(co.calibrator)
	}
	if co.metricsAddr != "" {
		if _, err := c.ServeMetrics(co.metricsAddr); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Telemetry returns the context's telemetry hub: the live metrics
// registry (scrape it with Hub.Registry().WriteProm, snapshot it for
// assertions) and the run tracker behind the /runs endpoint.
func (c *Context) Telemetry() *metrics.Hub { return c.hub }

// ServeMetrics starts the embedded monitoring server on addr (":0"
// picks a free port) and returns the bound address. The server serves
// /metrics, /runs and /debug/pprof for this context's telemetry hub
// until Close.
func (c *Context) ServeMetrics(addr string) (string, error) {
	if c.monSrv == nil {
		c.monSrv = metrics.NewServer(c.hub)
	}
	return c.monSrv.Start(addr)
}

// MetricsAddr returns the monitoring server's bound address, or ""
// when no server is running.
func (c *Context) MetricsAddr() string {
	if c.monSrv == nil {
		return ""
	}
	return c.monSrv.Addr()
}

// Close stops the context's monitoring server, if one is running. The
// context itself stays usable — jobs can still execute; only the HTTP
// surface goes away.
func (c *Context) Close() error {
	if c.monSrv == nil {
		return nil
	}
	return c.monSrv.Close()
}

// Registry exposes the platform registry, through which additional
// platforms and operator mappings can be plugged in.
func (c *Context) Registry() *engine.Registry { return c.reg }

// RunOption customises one execution.
type RunOption func(*runConfig)

type runConfig struct {
	opt      optimizer.Options
	exec     executor.Options
	tracing  bool
	monitors []trace.Consumer
}

// OnPlatform pins the whole job to one platform — the single-platform
// baselines of the experiments, and an escape hatch for users who know
// better than the optimizer.
func OnPlatform(id engine.PlatformID) RunOption {
	return func(rc *runConfig) { rc.opt.FixedPlatform = id }
}

// WithContext bounds the run with ctx: cancelling it aborts in-flight
// atoms and Execute returns the context's error. A deadline on ctx is
// the whole-job budget (pair it with WithAtomTimeout to also bound
// individual attempts). nil keeps the default background context.
func WithContext(ctx context.Context) RunOption {
	return func(rc *runConfig) { rc.exec.Context = ctx }
}

// WithExcludedPlatforms removes platforms from the optimizer's
// consideration for this run — the job-service's per-tenant isolation
// lever: a tenant whose jobs keep failing on one platform gets it
// excluded from its own plans without quarantining it for anybody
// else. Excluding every registered platform fails optimization.
func WithExcludedPlatforms(ids ...engine.PlatformID) RunOption {
	return func(rc *runConfig) {
		if len(ids) == 0 {
			return
		}
		if rc.opt.ExcludePlatforms == nil {
			rc.opt.ExcludePlatforms = make(map[engine.PlatformID]bool, len(ids))
		}
		for _, id := range ids {
			rc.opt.ExcludePlatforms[id] = true
		}
	}
}

// WithSchedulerPool makes the run draw its execution slots from a
// shared executor.Pool: every compute atom holds one while it executes,
// so the pool's size bounds what N concurrent jobs execute at once —
// how a long-running service keeps its jobs from oversubscribing the
// host. A pool of one runs a job's atoms one at a time.
func WithSchedulerPool(p *executor.Pool) RunOption {
	return func(rc *runConfig) { rc.exec.Pool = p }
}

// WithMonitor subscribes f to the run's span stream — the one event
// vocabulary of a run (trace.Event: SpanStart, SpanRetry and SpanEnd
// per atom and loop with the span they concern, LoopIteration,
// Replan, Failover, RunStart, AuditRecords, and PlanDone on success
// only). Calls are serialized, and one span's events arrive in program
// order; f must not block for long and should read the span during the
// call instead of keeping the pointer.
func WithMonitor(f func(trace.Event)) RunOption {
	return func(rc *runConfig) { rc.monitors = append(rc.monitors, f) }
}

// WithAtomTimeout bounds each execution attempt of a single task atom;
// an attempt exceeding the timeout fails with a deadline error and is
// retried like any failure not marked engine.Fatal. 0 disables the
// bound.
func WithAtomTimeout(d time.Duration) RunOption {
	return func(rc *runConfig) { rc.exec.AtomTimeout = d }
}

// WithTracing enables cross-layer observability for the run: the
// Report carries the full span trace (one span per executed task atom
// — queue wait, per-attempt latency, conversion volume, chosen
// platform — plus the optimizer's estimate-vs-actual audit trail) and
// a snapshot of the telemetry counters folded from the same span
// stream. Trace.WriteJSON dumps the trace as flame-friendly JSON lines.
func WithTracing() RunOption {
	return func(rc *runConfig) { rc.tracing = true }
}

// Report describes how a job ran: the chosen execution plan and the
// aggregate metrics (wall time, simulated cluster time, shuffled and
// moved bytes, jobs, retries).
type Report struct {
	// Plan is the execution plan the run ended on (after adaptive
	// re-optimization or failover, the replacement plan), failed or not.
	Plan    *optimizer.ExecutionPlan
	Metrics engine.Metrics
	// Mismatches lists the audit records of cardinality estimates the
	// executor's audit flagged as grossly wrong.
	Mismatches []trace.CardAudit
	// Reoptimized reports whether adaptive re-optimization replaced
	// the plan mid-run: a flagged audit with atoms still to start makes
	// the executor re-plan them with the observed cardinalities, once.
	Reoptimized bool
	// Failovers counts cross-platform failover re-plans: an atom that
	// exhausts its retries on a platform whose breaker opened moves,
	// with the rest, to the survivors. Every re-plan keeps the run's
	// pins and exclusions, except pins to a dead platform.
	Failovers int
	// PlatformHealth is the circuit-breaker state at the end of the run
	// of every platform whose breaker is not Closed; nil when all are.
	// An absent platform is Closed, the zero BreakerState, so
	// PlatformHealth[id] reads every platform right.
	PlatformHealth map[engine.PlatformID]engine.BreakerState
	// Trace is the run's span trace and estimate-vs-actual audit trail;
	// nil unless the run was started WithTracing.
	Trace *trace.Trace
	// Telemetry is a deep-copied snapshot of the context's live metrics
	// registry taken when the run finished — the same numbers the
	// /metrics endpoint serves (cumulative across the hub's runs); nil
	// unless the run was started WithTracing.
	Telemetry *metrics.Snapshot
	// RunID is the telemetry hub's identity for this execution — the
	// key into /runs, /runs/{id}/profile and /runs/{id}/trace.json.
	// Set whenever the run reached the executor, on failure too.
	RunID int64
}

// Execute optimizes and runs a logical plan, returning the sink's
// records and the run report. Every execution feeds the context's
// telemetry hub: while the plan runs, /metrics and /runs (see
// WithMetricsAddr) show its live progress. A run that reached the
// executor and failed still returns a Report: its Plan is the last plan
// the run was on (after any failover or re-optimization), with that
// run's Failovers, Reoptimized, Mismatches and RunID; Metrics,
// PlatformHealth, Trace and Telemetry are left empty.
func (c *Context) Execute(p *plan.Plan, opts ...RunOption) ([]data.Record, *Report, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	phys, err := physical.FromLogical(p)
	if err != nil {
		return nil, nil, err
	}
	// The hub's shared calibrator (if any) corrects this plan's costs
	// and re-plans mid-run with the same corrections.
	cal := c.hub.Calibrator()
	rc.opt.Calibration = cal
	rc.exec.Calibration = cal
	ep, err := optimizer.Optimize(phys, c.reg, rc.opt)
	if err != nil {
		return nil, nil, err
	}
	tracer, run := c.hub.NewRunTracer(p.Name(), rc.monitors...)
	rc.exec.Tracer = tracer
	res, err := executor.Run(ep, c.reg, rc.exec)
	run.End(err)
	// The flight recorder sees every run, failed ones included, and the
	// calibrator folds whatever finished: completed spans of a failed run
	// are still evidence about the cost model. A finished run hands them
	// the trace the executor took; a failed one's result carries none, so
	// the spans that completed come from the tracer.
	snap := res.Trace
	if err != nil {
		snap = tracer.Snapshot()
	}
	if rec := c.hub.FlightRecorder(); rec != nil {
		rec.Record(run.ID(), p.Name(), run.Started(), run.Ended(), err, snap)
	}
	if cal != nil {
		cal.Fold(profile.Observations(snap.Spans, snap.Audits))
	}
	rep := &Report{
		Plan:        res.FinalPlan,
		Mismatches:  res.Mismatches,
		Reoptimized: res.Reoptimized,
		Failovers:   res.Failovers,
		RunID:       run.ID(),
	}
	if err != nil {
		return nil, rep, err
	}
	rep.Metrics = res.Metrics
	rep.PlatformHealth = res.PlatformHealth
	if rc.tracing {
		// The caller owns this trace: it shares no slice with the one the
		// recorder keeps.
		rep.Trace = &trace.Trace{Spans: slices.Clone(snap.Spans), Audits: slices.Clone(snap.Audits)}
		rep.Telemetry = c.hub.Registry().Snapshot()
	}
	return res.Records, rep, nil
}

// Explain optimizes a logical plan and renders the execution plan —
// platform assignments, algorithms, task atoms — without running it.
func (c *Context) Explain(p *plan.Plan, opts ...RunOption) (string, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	phys, err := physical.FromLogical(p)
	if err != nil {
		return "", err
	}
	rc.opt.Calibration = c.hub.Calibrator()
	ep, err := optimizer.Optimize(phys, c.reg, rc.opt)
	if err != nil {
		return "", err
	}
	return ep.String(), nil
}
