// Package service is the multi-tenant job service over the rheem
// engine: an admission-controlled front door (bounded queue, per-tenant
// quotas and rate limits), a single dispatcher feeding every accepted
// job through one shared engine registry and scheduler pool, per-tenant
// platform health, and a graceful drain that guarantees every acked job
// reaches an observable terminal state.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rheem"
	"rheem/internal/apps/rheemql"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/metrics"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/storage/blob"
)

// ShedError reports a submission rejected by admission control. The
// HTTP layer maps it to 429 with a Retry-After hint.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("service: overloaded (%s), retry in %s", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// ErrDraining rejects submissions while the service shuts down (HTTP
// 503): unlike a shed, retrying against this instance won't help.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// ErrNotFound reports an unknown (or already evicted) job id.
var ErrNotFound = errors.New("service: no such job")

// Config tunes the service. The zero value serves with sane defaults.
// Every job runs on one shared engine context with the three bundled
// platforms at their defaults.
type Config struct {
	// MaxActiveJobs bounds jobs executing simultaneously, service-wide
	// (default 4). Everything else waits in the pending queue.
	MaxActiveJobs int
	// QueueDepth bounds accepted-but-not-started jobs service-wide
	// (default 64); submissions past it are shed with 429.
	QueueDepth int
	// PoolSize is the shared scheduler pool's slot count — the global
	// bound on concurrently executing atoms across ALL jobs (default
	// runtime.NumCPU()). Without it, N concurrent jobs each spin their
	// own worker pool and oversubscribe the host N-fold.
	PoolSize int

	// DefaultQuota applies to tenants without an entry in Quotas.
	DefaultQuota Quota
	// Quotas assigns per-tenant overrides by tenant name.
	Quotas map[string]Quota

	// DefaultDeadline bounds jobs that don't set one (default 30s);
	// MaxDeadline clamps what a job may ask for (default 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DefaultAtomTimeout bounds each atom attempt for jobs that don't
	// set one (default 10s); negative disables the default.
	DefaultAtomTimeout time.Duration
	// DrainTimeout is how long Drain waits for in-flight work before
	// force-cancelling it (default 30s).
	DrainTimeout time.Duration

	// JobHistory bounds finished jobs kept queryable (default 256);
	// RunHistory bounds the telemetry hub's finished-run history
	// (default 128).
	JobHistory int
	RunHistory int
	// ProfileHistory bounds the flight recorder's completed-run profile
	// history (0 selects profile.DefaultHistory; negative disables the
	// recorder entirely).
	ProfileHistory int
	// StateDir, when set, is the directory the service keeps its state
	// in across restarts: the recorder's profiles (runprofile-<id>.json,
	// rehydrated in New, with run IDs seeded past the persisted maximum)
	// and, with Calibration on, the calibrator's state (calibration.json,
	// the GET /calibration document, saved after every finished job and
	// rehydrated in New). Empty keeps both in memory only.
	StateDir string

	// Calibration enables the shared cost calibrator: every tenant's
	// finished jobs fold their estimate-vs-actual residuals into one
	// calibrator on the hub, and every job's plan is priced with the
	// learned corrections — the service's live traffic warms the
	// optimizer. Inspect it at GET /calibration.
	Calibration bool

	// FailureThreshold consecutive job failures attributed to a platform
	// open that tenant's breaker for it (default 3); Cooldown is how
	// long it stays open before a half-open probe (default 30s).
	FailureThreshold int
	Cooldown         time.Duration

	// CatalogScale shrinks the server's SQL catalog tables (0 = full).
	CatalogScale int

	// Hub shares an existing telemetry hub; nil creates a private one.
	Hub *metrics.Hub
	// Clock injects time (tests); nil uses time.Now.
	Clock func() time.Time
	// Prepare runs against the engine context before the service starts
	// — the chaos suite's fault-injection hook.
	Prepare func(*rheem.Context) error
}

func (c Config) withDefaults() Config {
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.NumCPU()
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.DefaultAtomTimeout == 0 {
		c.DefaultAtomTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	if c.RunHistory <= 0 {
		c.RunHistory = 128
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Service runs many tenants' jobs concurrently over one shared engine.
type Service struct {
	cfg       Config
	rctx      *rheem.Context
	hub       *metrics.Hub
	cat       *rheemql.Catalog
	pool      *executor.Pool
	rec       *profile.Recorder // nil when ProfileHistory < 0
	cal       *cost.Calibrator  // nil unless Config.Calibration
	state     *blob.Dir         // nil unless Config.StateDir
	calSave   sync.Mutex        // one saveCalibration at a time
	platforms []engine.PlatformID

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenant
	order   []string // round-robin order (tenant creation order)
	rr      int
	jobs    map[string]*Job
	doneIDs []string // terminal jobs in completion order (eviction)
	queued  int
	active  int

	draining   bool
	closed     bool
	drainCh    chan struct{} // non-nil once draining; closed when drained
	drainWall  time.Time
	drainForce bool

	wg     sync.WaitGroup // dispatcher + running jobs
	nextID atomic.Int64

	// Scrape-time gauges read these atomics only — never s.mu — so
	// /metrics can never deadlock against the service lock.
	gQueued   atomic.Int64
	gActive   atomic.Int64
	gDraining atomic.Int64
	gDrainNS  atomic.Int64

	mAccepted  *metrics.CounterVec
	mShed      *metrics.CounterVec
	mDone      *metrics.CounterVec
	mLatency   *metrics.HistogramVec
	mQueueWait *metrics.HistogramVec
}

// New builds the engine context, registers the service_* metrics on
// the hub, and starts the dispatcher. Stop with Drain/Kill + Close.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	hub := cfg.Hub
	if hub == nil {
		hub = metrics.NewHub()
	}
	rctx, err := rheem.NewContext(rheem.Config{}, rheem.WithTelemetryHub(hub))
	if err != nil {
		return nil, err
	}
	cat, err := DefaultCatalog(cfg.CatalogScale)
	if err != nil {
		return nil, err
	}
	if cfg.Prepare != nil {
		if err := cfg.Prepare(rctx); err != nil {
			return nil, err
		}
	}
	hub.Runs().SetDoneHistory(cfg.RunHistory)
	var state *blob.Dir
	if cfg.StateDir != "" {
		if state, err = blob.Open(cfg.StateDir); err != nil {
			return nil, fmt.Errorf("service: state directory: %w", err)
		}
	}
	// The flight recorder sees every engine run; with a state directory
	// it rehydrates the persisted profile history and advances the run-ID
	// counter past it, so post-restart runs never collide with the
	// profiles a previous process left behind.
	var rec *profile.Recorder
	if cfg.ProfileHistory >= 0 {
		rec = profile.NewRecorder(cfg.ProfileHistory, state)
		if state != nil {
			maxID, err := rec.LoadPersisted()
			if err != nil {
				return nil, fmt.Errorf("service: loading persisted profiles: %w", err)
			}
			hub.Runs().SeedID(maxID)
		}
		hub.SetFlightRecorder(rec)
	}
	// The shared calibrator, rehydrated from the state directory before
	// the dispatcher starts so the very first job is priced with whatever
	// a previous process learned.
	var cal *cost.Calibrator
	if cfg.Calibration {
		cal = cost.NewCalibrator(cost.CalibratorConfig{})
		if state != nil {
			if err := loadCalibration(state, cal); err != nil {
				return nil, fmt.Errorf("service: loading calibration: %w", err)
			}
		}
		hub.SetCalibrator(cal)
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		rctx:       rctx,
		hub:        hub,
		cat:        cat,
		rec:        rec,
		cal:        cal,
		state:      state,
		pool:       executor.NewPool(cfg.PoolSize),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		tenants:    map[string]*tenant{},
		jobs:       map[string]*Job{},
	}
	// Platform set after registration; used to guard "never exclude all".
	for _, p := range rctx.Registry().Platforms() {
		s.platforms = append(s.platforms, p.ID())
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerMetrics()
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

func (s *Service) now() time.Time { return s.cfg.Clock() }

// Engine returns the shared engine context (tests, fault injection).
func (s *Service) Engine() *rheem.Context { return s.rctx }

var latencyBounds = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

func (s *Service) registerMetrics() {
	reg := s.hub.Registry()
	s.mAccepted = reg.CounterVec("service_jobs_accepted_total",
		"Jobs admission control accepted (acked to the client).", "tenant")
	s.mShed = reg.CounterVec("service_jobs_shed_total",
		"Submissions shed by admission control, by reason.", "tenant", "reason")
	s.mDone = reg.CounterVec("service_jobs_done_total",
		"Jobs reaching a terminal state, by state.", "tenant", "state")
	s.mLatency = reg.HistogramVec("service_job_latency_seconds",
		"Job latency from acceptance to terminal state.", latencyBounds, "tenant")
	s.mQueueWait = reg.HistogramVec("service_job_queue_wait_seconds",
		"Queue wait from acceptance to execution start.", latencyBounds, "tenant")
	one := func(v float64) []metrics.Sample { return []metrics.Sample{{Value: v}} }
	reg.SetFunc("service_queue_depth", "Accepted jobs waiting to start.", "gauge", nil,
		func() []metrics.Sample { return one(float64(s.gQueued.Load())) })
	reg.SetFunc("service_active_jobs", "Jobs executing right now.", "gauge", nil,
		func() []metrics.Sample { return one(float64(s.gActive.Load())) })
	reg.SetFunc("service_pool_slots_in_use", "Shared scheduler pool slots held by executing atoms.", "gauge", nil,
		func() []metrics.Sample { return one(float64(s.pool.InUse())) })
	reg.SetFunc("service_pool_slots", "Shared scheduler pool size.", "gauge", nil,
		func() []metrics.Sample { return one(float64(s.pool.Size())) })
	reg.SetFunc("service_draining", "1 while the service is draining.", "gauge", nil,
		func() []metrics.Sample { return one(float64(s.gDraining.Load())) })
	reg.SetFunc("service_drain_seconds", "Wall time the last drain took.", "gauge", nil,
		func() []metrics.Sample { return one(time.Duration(s.gDrainNS.Load()).Seconds()) })
}

// maxTenants bounds the tenant records, and with them the tenant-labelled
// service_* series, that submissions can create: a record lives as long
// as the service.
const maxTenants = 1024

// tenantLocked finds or creates the tenant record, refusing a new one
// past maxTenants.
func (s *Service) tenantLocked(name string, now time.Time) (*tenant, error) {
	tn := s.tenants[name]
	if tn == nil {
		if len(s.tenants) >= maxTenants {
			return nil, fmt.Errorf("service: no room for tenant %q: the service serves %d tenants already", name, maxTenants)
		}
		q := s.cfg.DefaultQuota
		if override, ok := s.cfg.Quotas[name]; ok {
			q = override
		}
		q = q.withDefaults()
		tn = &tenant{name: name, quota: q, bucket: newBucket(q, now), health: engine.NewHealth(
			engine.HealthConfig{Threshold: s.cfg.FailureThreshold, Cooldown: s.cfg.Cooldown}, s.cfg.Clock)}
		s.tenants[name] = tn
		s.order = append(s.order, name)
	}
	return tn, nil
}

// Submit runs admission control and, on acceptance, acks the job:
// from this point the service guarantees the job reaches a terminal
// state observable through Status. Rejections are typed — ShedError
// (retryable overload), ErrDraining (shutting down), anything else is
// the submitter's fault (HTTP 400).
func (s *Service) Submit(req Request) (JobStatus, error) {
	_, st, err := s.admit(req)
	return st, err
}

// admit is Submit returning the admitted job as well as its status at
// admission, so POST /jobs can hold its reply on that very job.
func (s *Service) admit(req Request) (*Job, JobStatus, error) {
	req.normalize()
	if err := req.Validate(); err != nil {
		return nil, JobStatus{}, err
	}
	if req.Platform != "" && !s.knownPlatform(engine.PlatformID(req.Platform)) {
		return nil, JobStatus{}, fmt.Errorf("service: unknown platform %q", req.Platform)
	}
	now := s.now()
	id := fmt.Sprintf("j-%d", s.nextID.Add(1))
	planName := fmt.Sprintf("%s/%s#%s", req.Tenant, req.Name, id)
	// SQL compiles at the door: syntax and catalog errors are the
	// submitter's fault and should reject the request, not produce a
	// failed job. Workload plans build lazily at execution start so
	// admission never pays for input generation.
	var build func() (*plan.Plan, error)
	if req.Spec.Kind == KindSQL {
		p, err := req.Spec.BuildPlan(planName, s.cat)
		if err != nil {
			return nil, JobStatus{}, err
		}
		build = func() (*plan.Plan, error) { return p, nil }
	} else {
		spec := req.Spec
		build = func() (*plan.Plan, error) { return spec.BuildPlan(planName, s.cat) }
	}
	j := &Job{
		id: id, tenant: req.Tenant, name: req.Name, req: req,
		submitted: now, buildPlan: build,
		state: StateQueued, done: make(chan struct{}),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, JobStatus{}, ErrDraining
	}
	tn, err := s.tenantLocked(req.Tenant, now)
	if err != nil {
		return nil, JobStatus{}, err
	}
	if ok, retry := tn.bucket.take(now); !ok {
		tn.shed++
		s.mShed.With(tn.name, "rate-limit").Inc()
		return nil, JobStatus{}, &ShedError{Reason: "tenant rate limit", RetryAfter: retry}
	}
	if s.queued >= s.cfg.QueueDepth {
		tn.shed++
		s.mShed.With(tn.name, "queue-full").Inc()
		return nil, JobStatus{}, &ShedError{Reason: "service queue full", RetryAfter: time.Second}
	}
	if len(tn.queue) >= tn.quota.MaxQueued {
		tn.shed++
		s.mShed.With(tn.name, "tenant-queue-full").Inc()
		return nil, JobStatus{}, &ShedError{Reason: "tenant queue full", RetryAfter: time.Second}
	}
	tn.queue = append(tn.queue, j)
	tn.accepted++
	s.queued++
	s.gQueued.Store(int64(s.queued))
	s.jobs[id] = j
	s.mAccepted.With(tn.name).Inc()
	j.acked = s.now() // the admission span's end, the queue span's start
	s.cond.Signal()
	return j, j.statusLocked(), nil
}

func (s *Service) knownPlatform(id engine.PlatformID) bool {
	for _, p := range s.platforms {
		if p == id {
			return true
		}
	}
	return false
}

// dispatch is the single scheduler loop: while capacity is free it
// starts the next runnable job, cycling tenants round-robin so one
// tenant's backlog cannot starve the others.
func (s *Service) dispatch() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && !s.runnableLocked() {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		j, tn := s.pickLocked()
		s.queued--
		s.gQueued.Store(int64(s.queued))
		s.active++
		s.gActive.Store(int64(s.active))
		tn.running++
		j.state = StateRunning
		j.started = s.now()
		s.wg.Add(1)
		go s.runJob(j, tn)
	}
}

func (s *Service) runnableLocked() bool {
	if s.active >= s.cfg.MaxActiveJobs {
		return false
	}
	for _, name := range s.order {
		tn := s.tenants[name]
		if len(tn.queue) > 0 && tn.running < tn.quota.MaxConcurrent {
			return true
		}
	}
	return false
}

// pickLocked pops the head of the next eligible tenant's queue,
// starting the scan one past the previously served tenant.
func (s *Service) pickLocked() (*Job, *tenant) {
	n := len(s.order)
	for i := 0; i < n; i++ {
		idx := (s.rr + i) % n
		tn := s.tenants[s.order[idx]]
		if len(tn.queue) > 0 && tn.running < tn.quota.MaxConcurrent {
			j := tn.queue[0]
			tn.queue = tn.queue[1:]
			s.rr = (idx + 1) % n
			return j, tn
		}
	}
	panic("service: pickLocked called without a runnable job")
}

func (s *Service) atomTimeout(req Request) time.Duration {
	if req.AtomTimeoutMS > 0 {
		return time.Duration(req.AtomTimeoutMS) * time.Millisecond
	}
	if s.cfg.DefaultAtomTimeout > 0 {
		return s.cfg.DefaultAtomTimeout
	}
	return 0
}

// runJob executes one job end to end and finishes it into a terminal
// state — every exit path lands in finishLocked.
func (s *Service) runJob(j *Job, tn *tenant) {
	defer s.wg.Done()
	deadline := j.req.deadline(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	defer cancel()

	s.mu.Lock()
	if j.cancelRequested {
		s.jobDoneLocked(j, tn, StateCancelled, errors.New("cancelled before start"), nil, "", nil, 0)
		s.mu.Unlock()
		s.cond.Broadcast()
		return
	}
	j.cancel = cancel
	s.mu.Unlock()
	excluded := tn.health.QuarantinedPlatforms()
	since := tn.health.FailureSeq()
	s.mQueueWait.With(j.tenant).Observe(j.started.Sub(j.submitted).Seconds())

	// Tenant health may have opened a breaker for every platform; keep
	// at least one candidate so the job can still be attempted — a
	// likely failure beats a certain one.
	if len(excluded) >= len(s.platforms) && len(excluded) > 0 {
		excluded = excluded[:len(s.platforms)-1]
	}

	var (
		recs      []data.Record
		digest    string
		platforms []engine.PlatformID
		failovers int
		runID     int64
	)
	p, err := j.build()
	if err == nil {
		opts := []rheem.RunOption{
			rheem.WithContext(ctx),
			rheem.WithSchedulerPool(s.pool),
		}
		if at := s.atomTimeout(j.req); at > 0 {
			opts = append(opts, rheem.WithAtomTimeout(at))
		}
		if j.req.Platform != "" {
			opts = append(opts, rheem.OnPlatform(engine.PlatformID(j.req.Platform)))
		} else if len(excluded) > 0 {
			opts = append(opts, rheem.WithExcludedPlatforms(excluded...))
		}
		var rep *rheem.Report
		recs, rep, err = s.rctx.Execute(p, opts...)
		if rep != nil {
			failovers = rep.Failovers
			platforms = planPlatforms(rep.Plan)
			runID = rep.RunID
		}
		if err == nil {
			digest, err = Digest(recs)
		}
	}

	state := StateSucceeded
	if err != nil {
		s.mu.Lock()
		requested := j.cancelRequested
		s.mu.Unlock()
		switch {
		case requested:
			state = StateCancelled
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			state = StateFailed
			err = fmt.Errorf("deadline (%s) exceeded: %w", deadline, err)
		case s.baseCtx.Err() != nil:
			state = StateCancelled
			err = fmt.Errorf("server shutting down: %w", err)
		default:
			state = StateFailed
		}
	}

	s.mu.Lock()
	if state != StateCancelled && len(platforms) > 0 {
		tn.reportOutcome(platforms, state == StateFailed, since)
	}
	j.runID = runID
	s.jobDoneLocked(j, tn, state, err, recs, digest, platforms, failovers)
	s.mu.Unlock()
	s.cond.Broadcast()
	s.annotateRun(j)
	// The engine run already folded into the calibrator (rheem.Execute
	// does it on the shared hub); what's left is persisting the newly
	// warmed state.
	s.saveCalibration()
}

// annotateRun appends the service-layer lifecycle spans — admission,
// queue residency, dispatch-to-terminal — to the job's recorded run
// profile, correlated by run ID and tagged with the job and tenant, so
// a job's path from submission to result reads as one trace. Called
// once the job is terminal, outside s.mu (Annotate re-persists the
// record to the state directory).
func (s *Service) annotateRun(j *Job) {
	if s.rec == nil {
		return
	}
	s.mu.Lock()
	runID := j.runID
	planName := fmt.Sprintf("%s/%s#%s", j.tenant, j.name, j.id)
	id, tenant := j.id, j.tenant
	submitted, acked, started, ended := j.submitted, j.acked, j.started, j.ended
	s.mu.Unlock()
	if runID == 0 {
		return // never reached the executor; nothing was recorded
	}
	mk := func(kind string, from, to time.Time) *trace.Span {
		wall := to.Sub(from)
		if wall < 0 {
			wall = 0
		}
		return &trace.Span{
			Kind: kind, Name: kind, Plan: planName, Iteration: -1, Shard: -1,
			Job: id, Tenant: tenant,
			StartedAt: from, EndedAt: to, Wall: wall,
		}
	}
	// Best effort: the run may already have been evicted from the
	// recorder's bounded history by newer jobs.
	_ = s.rec.Annotate(runID,
		mk(trace.KindAdmission, submitted, acked),
		mk(trace.KindQueue, acked, started),
		mk(trace.KindDispatch, started, ended),
	)
}

// jobDoneLocked moves a started job to its terminal state and releases
// its capacity. Caller holds s.mu.
func (s *Service) jobDoneLocked(j *Job, tn *tenant, state string, err error, recs []data.Record, digest string, platforms []engine.PlatformID, failovers int) {
	s.active--
	s.gActive.Store(int64(s.active))
	tn.running--
	j.platforms = platforms
	j.failovers = failovers
	s.finishLocked(j, tn, state, err, recs, digest)
}

// finishLocked is the single place a job becomes terminal: state,
// counters, done-channel, bounded history eviction. Caller holds s.mu.
func (s *Service) finishLocked(j *Job, tn *tenant, state string, err error, recs []data.Record, digest string) {
	if terminal(j.state) {
		return
	}
	j.state = state
	j.ended = s.now()
	switch state {
	case StateSucceeded:
		j.records = recs
		j.digest = digest
		j.outRecs = int64(len(recs))
		tn.completed++
	case StateFailed:
		tn.failed++
	case StateCancelled:
		tn.cancelled++
	}
	if err != nil && state != StateSucceeded {
		j.err = err.Error()
	}
	close(j.done)
	s.mDone.With(tn.name, state).Inc()
	if !j.started.IsZero() {
		s.mLatency.With(tn.name).Observe(j.ended.Sub(j.submitted).Seconds())
	}
	s.doneIDs = append(s.doneIDs, j.id)
	for len(s.doneIDs) > s.cfg.JobHistory {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
}

// planPlatforms lists the distinct platforms an execution plan's top
// level used, in order. There are as few as the registry has platforms,
// so a sorted insert into a short slice dedupes them.
func planPlatforms(ep *optimizer.ExecutionPlan) []engine.PlatformID {
	if ep == nil {
		return nil
	}
	var out []engine.PlatformID
	for _, op := range ep.Physical.Ops {
		id := ep.Assignment[op.ID]
		if i, found := slices.BinarySearch(out, id); !found {
			out = slices.Insert(out, i, id)
		}
	}
	return out
}

// Status returns one job's snapshot.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return j.statusLocked(), nil
}

// lookup returns the remembered job with the id, or nil.
func (s *Service) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// statusOf snapshots a job the caller holds, remembered or evicted.
func (s *Service) statusOf(j *Job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.statusLocked()
}

// Result returns a succeeded job's records and digest.
func (s *Service) Result(id string) ([]data.Record, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, "", ErrNotFound
	}
	if j.state != StateSucceeded {
		return nil, "", fmt.Errorf("service: job %s is %s, no result", id, j.state)
	}
	return j.records, j.digest, nil
}

// Jobs snapshots every job the service still remembers, submission
// order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.statusLocked())
	}
	sort.Slice(out, func(i, k int) bool { return jobNum(out[i].ID) < jobNum(out[k].ID) })
	return out
}

func jobNum(id string) int64 {
	var n int64
	fmt.Sscanf(id, "j-%d", &n)
	return n
}

// Tenants snapshots per-tenant admission and health state.
func (s *Service) Tenants() []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.order))
	for _, name := range s.order {
		tn := s.tenants[name]
		st := TenantStatus{
			Name: tn.name, Quota: tn.quota,
			Queued: len(tn.queue), Running: tn.running,
			Accepted: tn.accepted, Shed: tn.shed,
			Completed: tn.completed, Failed: tn.failed, Cancelled: tn.cancelled,
		}
		for _, id := range tn.health.QuarantinedPlatforms() {
			st.ExcludedPlatforms = append(st.ExcludedPlatforms, string(id))
		}
		out = append(out, st)
	}
	return out
}

// Cancel stops a job: a queued job is finished immediately, a running
// one has its context cancelled (terminal state follows when the
// executor unwinds). Cancelling a terminal job is a no-op.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	tn := s.tenants[j.tenant]
	switch j.state {
	case StateQueued:
		for i, q := range tn.queue {
			if q == j {
				tn.queue = append(tn.queue[:i], tn.queue[i+1:]...)
				break
			}
		}
		s.queued--
		s.gQueued.Store(int64(s.queued))
		j.cancelRequested = true
		s.finishLocked(j, tn, StateCancelled, errors.New("cancelled by request"), nil, "")
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.statusLocked(), nil
}

// Wait blocks until the job is terminal (or ctx expires) and returns
// its final status.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	return s.statusOf(j), nil
}

// DrainReport summarizes a completed drain.
type DrainReport struct {
	// Duration is the wall time from drain start to quiescence.
	Duration time.Duration `json:"duration"`
	// Forced reports whether the drain timeout expired and remaining
	// work was force-cancelled (still observable — cancelled, not lost).
	Forced bool `json:"forced"`
}

// Drain stops admission and waits for every accepted job to reach a
// terminal state: queued and running jobs are allowed to finish; past
// the drain timeout the stragglers are force-cancelled. Idempotent —
// concurrent callers wait for the same drain. ctx bounds this caller's
// wait, not the drain itself.
func (s *Service) Drain(ctx context.Context) (DrainReport, error) {
	s.mu.Lock()
	if s.drainCh == nil {
		s.draining = true
		s.gDraining.Store(1)
		s.drainWall = time.Now()
		s.drainCh = make(chan struct{})
		go s.drainLoop(s.drainCh)
	}
	ch := s.drainCh
	s.mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
		return s.drainReport(), ctx.Err()
	}
	return s.drainReport(), nil
}

func (s *Service) drainReport() DrainReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DrainReport{Duration: time.Duration(s.gDrainNS.Load()), Forced: s.drainForce}
}

// drainLoop waits for quiescence, force-cancelling at the timeout.
func (s *Service) drainLoop(ch chan struct{}) {
	timeout := time.NewTimer(s.cfg.DrainTimeout)
	defer timeout.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.active == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-tick.C:
		case <-timeout.C:
			s.forceCancel("drain timeout")
		}
	}
	s.gDrainNS.Store(int64(time.Since(s.drainWall)))
	s.gDraining.Store(0)
	close(ch)
}

// forceCancel finishes every queued job as cancelled and cancels every
// running one — nothing is dropped, everything stays observable.
func (s *Service) forceCancel(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainForce = true
	for _, name := range s.order {
		tn := s.tenants[name]
		queue := tn.queue
		tn.queue = nil
		for _, j := range queue {
			s.queued--
			j.cancelRequested = true
			s.finishLocked(j, tn, StateCancelled, errors.New(reason), nil, "")
		}
	}
	s.gQueued.Store(int64(s.queued))
	for _, j := range s.jobs {
		if j.state == StateRunning {
			j.cancelRequested = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
}

// Kill is the hard stop (second SIGTERM): cancel the engine context
// under everything, force-cancel queued work, and stop admitting. Jobs
// terminate as cancelled — observable, not lost.
func (s *Service) Kill() {
	s.mu.Lock()
	s.draining = true
	s.gDraining.Store(1)
	s.mu.Unlock()
	s.baseCancel()
	s.forceCancel("server killed")
	s.cond.Broadcast()
}

// Close stops the dispatcher and waits for in-flight jobs to unwind.
// Call after Drain or Kill; closing a busy service blocks until its
// running jobs finish.
func (s *Service) Close() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if alreadyClosed {
		return
	}
	s.cond.Broadcast()
	s.wg.Wait()
	s.baseCancel()
	s.rctx.Close()
}
