package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/core/metrics"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.CatalogScale == 0 {
		cfg.CatalogScale = 500
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Kill()
		s.Close()
	})
	return s
}

func waitTerminal(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// waitState polls until the job reaches state (dispatch is
// asynchronous; tests that reason about queue occupancy first wait for
// the head job to actually start).
func waitState(t testing.TB, s *Service, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

func wordcountReq(tenant string, n int, seed uint64) Request {
	return Request{
		Tenant: tenant,
		Spec:   Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: n, Seed: seed},
	}
}

func TestSubmitRunsWorkloadJob(t *testing.T) {
	s := newTestService(t, Config{})
	st, err := s.Submit(wordcountReq("acme", 500, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("acked job state %q, want queued", st.State)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job ended %s (%s), want succeeded", final.State, final.Err)
	}
	if final.Records == 0 || final.Digest == "" {
		t.Fatalf("succeeded job missing results: records=%d digest=%q", final.Records, final.Digest)
	}
	if len(final.Platforms) == 0 {
		t.Fatal("succeeded job reports no platforms")
	}
	recs, digest, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != final.Records || digest != final.Digest {
		t.Fatalf("Result disagrees with status: %d/%s vs %d/%s",
			len(recs), digest, final.Records, final.Digest)
	}
}

func TestSubmitRunsSQLJob(t *testing.T) {
	s := newTestService(t, Config{})
	st, err := s.Submit(Request{
		Tenant: "acme",
		Spec:   Spec{Kind: KindSQL, Query: "SELECT well, AVG(pressure) AS p FROM sensors GROUP BY well ORDER BY well LIMIT 5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("sql job ended %s (%s)", final.State, final.Err)
	}
	if final.Records != 5 {
		t.Fatalf("sql job returned %d rows, want 5", final.Records)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	s := newTestService(t, Config{})
	cases := []Request{
		{Spec: Spec{Kind: "nope"}},
		{Spec: Spec{Kind: KindWorkload, Workload: "mystery"}},
		{Spec: Spec{Kind: KindSQL, Query: "SELEC broken"}},
		{Spec: Spec{Kind: KindSQL, Query: "SELECT x FROM missing_table"}},
		{Spec: Spec{Kind: KindWorkload, Workload: WorkloadFanout}, Platform: "quantum"},
		{Spec: Spec{Kind: KindWorkload, Workload: WorkloadFanout}, DeadlineMS: -1},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d jobs behind", len(jobs))
	}
}

// TestDeterministicAcrossSubmissions pins the service's core replay
// property: the same spec always produces the same digest, which is
// what lets the chaos suite demand byte identity.
func TestDeterministicAcrossSubmissions(t *testing.T) {
	s := newTestService(t, Config{})
	var digests []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(wordcountReq("acme", 400, 9))
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, st.ID)
		if final.State != StateSucceeded {
			t.Fatalf("run %d ended %s (%s)", i, final.State, final.Err)
		}
		digests = append(digests, final.Digest)
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatalf("same spec produced different digests: %v", digests)
	}
}

// TestQueueFullSheds freezes execution by holding the only scheduler
// pool slot, fills the bounded queue, and checks the next submission
// is shed with a retry hint — deterministically, no timing games.
func TestQueueFullSheds(t *testing.T) {
	s := newTestService(t, Config{
		MaxActiveJobs: 1,
		QueueDepth:    2,
		PoolSize:      1,
	})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			s.pool.Release()
		}
	}()

	var ids []string
	// One job occupies the single active slot (blocked on the pool),
	// two more fill the queue.
	for i := 0; i < 3; i++ {
		st, err := s.Submit(wordcountReq("acme", 100, uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
		if i == 0 {
			// Dispatch is asynchronous: wait until the head job holds the
			// active slot so the next two really land in the queue.
			waitState(t, s, st.ID, StateRunning)
		}
	}
	_, err := s.Submit(wordcountReq("acme", 100, 99))
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overflow submission got %v, want ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("shed without a retry hint: %v", shed)
	}

	// Unfreeze: everything accepted must finish.
	s.pool.Release()
	released = true
	for _, id := range ids {
		if final := waitTerminal(t, s, id); final.State != StateSucceeded {
			t.Fatalf("job %s ended %s (%s)", id, final.State, final.Err)
		}
	}
	snap := s.hub.Registry().Snapshot()
	if got, ok := snap.Counter("service_jobs_shed_total", map[string]string{"tenant": "acme", "reason": "queue-full"}); !ok || got != 1 {
		t.Fatalf("shed counter = %v (present %v), want 1", got, ok)
	}
}

// TestTenantQueueQuota sheds one tenant's overflow while another
// tenant still gets in: per-tenant bounds, not just the global one.
func TestTenantQueueQuota(t *testing.T) {
	s := newTestService(t, Config{
		MaxActiveJobs: 1,
		QueueDepth:    64,
		PoolSize:      1,
		DefaultQuota:  Quota{MaxConcurrent: 1, MaxQueued: 1},
	})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()

	// Tenant A: one running (pool-blocked), one queued; the third is shed.
	for i := 0; i < 2; i++ {
		st, err := s.Submit(wordcountReq("a", 100, uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i == 0 {
			waitState(t, s, st.ID, StateRunning)
		}
	}
	var shed *ShedError
	if _, err := s.Submit(wordcountReq("a", 100, 9)); !errors.As(err, &shed) {
		t.Fatalf("tenant overflow got %v, want ShedError", err)
	}
	// Tenant B is unaffected by A's full queue.
	if _, err := s.Submit(wordcountReq("b", 100, 1)); err != nil {
		t.Fatalf("tenant b blocked by tenant a's backlog: %v", err)
	}
}

// TestRateLimitSheds drives the token bucket with an injected clock.
func TestRateLimitSheds(t *testing.T) {
	var fake atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	fake.Store(0)
	clock := func() time.Time { return base.Add(time.Duration(fake.Load())) }
	s := newTestService(t, Config{
		Clock:  clock,
		Quotas: map[string]Quota{"metered": {RatePerSec: 1, Burst: 1}},
	})
	if _, err := s.Submit(wordcountReq("metered", 100, 1)); err != nil {
		t.Fatalf("first submission within burst: %v", err)
	}
	_, err := s.Submit(wordcountReq("metered", 100, 2))
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-rate submission got %v, want ShedError", err)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > time.Second {
		t.Fatalf("retry hint %v, want (0s, 1s]", shed.RetryAfter)
	}
	// Advance past the refill; the bucket admits again.
	fake.Store(int64(1100 * time.Millisecond))
	if _, err := s.Submit(wordcountReq("metered", 100, 3)); err != nil {
		t.Fatalf("post-refill submission: %v", err)
	}
	// Unmetered tenants never shed on rate.
	if _, err := s.Submit(wordcountReq("free", 100, 4)); err != nil {
		t.Fatalf("unmetered tenant: %v", err)
	}
}

// TestRoundRobinFairness gives tenant A a backlog and checks tenant
// B's single job doesn't wait behind all of it.
func TestRoundRobinFairness(t *testing.T) {
	s := newTestService(t, Config{
		MaxActiveJobs: 1,
		PoolSize:      1,
		DefaultQuota:  Quota{MaxConcurrent: 1, MaxQueued: 16},
	})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	var aIDs []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(wordcountReq("a", 100, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		aIDs = append(aIDs, st.ID)
	}
	bSt, err := s.Submit(wordcountReq("b", 100, 7))
	if err != nil {
		t.Fatal(err)
	}
	s.pool.Release()

	bFinal := waitTerminal(t, s, bSt.ID)
	lastA := waitTerminal(t, s, aIDs[len(aIDs)-1])
	if bFinal.State != StateSucceeded || lastA.State != StateSucceeded {
		t.Fatalf("jobs failed: b=%s a=%s", bFinal.State, lastA.State)
	}
	if !bFinal.Started.Before(lastA.Started) {
		t.Fatalf("tenant b started %v, after tenant a's whole backlog (last started %v) — starved",
			bFinal.Started, lastA.Started)
	}
}

// TestCancelQueuedAndRunning cancels a queued job (terminal instantly)
// and a running one (terminal when the executor unwinds).
func TestCancelQueuedAndRunning(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			s.pool.Release()
		}
	}()

	running, err := s.Submit(wordcountReq("acme", 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(wordcountReq("acme", 200, 2))
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s, want cancelled", st.State)
	}

	// Wait until the first job is actually running (pool-blocked), then
	// cancel it; the held slot means only cancellation can finish it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (state %s)", running.ID, st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, running.ID)
	if final.State != StateCancelled {
		t.Fatalf("running job after cancel ended %s (%s), want cancelled", final.State, final.Err)
	}

	// Cancelling a terminal job is a no-op, not an error.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatalf("cancel of terminal job: %v", err)
	}
	if _, err := s.Cancel("j-404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown job: %v, want ErrNotFound", err)
	}
}

// TestDeadlineFailsJob submits a job that cannot finish in a
// millisecond and checks it fails with a deadline error rather than
// hanging or vanishing.
func TestDeadlineFailsJob(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()
	// The held pool slot guarantees the deadline expires while the job
	// is frozen mid-execution — no dependence on workload size.
	st, err := s.Submit(Request{
		Tenant:     "acme",
		Spec:       Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 200},
		DeadlineMS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed {
		t.Fatalf("deadline job ended %s (%s), want failed", final.State, final.Err)
	}
	if final.Err == "" {
		t.Fatal("deadline failure carries no error")
	}
}

// TestTenantBreakerIsolation: a tenant whose jobs keep failing gets
// the implicated platform excluded from its own plans — and only its
// own. Failures are manufactured with unmeetable deadlines, which the
// service attributes to the platforms the plan ran on.
func TestTenantBreakerIsolation(t *testing.T) {
	s := newTestService(t, Config{
		MaxActiveJobs:    1,
		PoolSize:         1,
		FailureThreshold: 2,
		Cooldown:         time.Hour,
	})
	failOne := func() JobStatus {
		if err := s.pool.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		st, err := s.Submit(Request{
			Tenant:     "trouble",
			Spec:       Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 200},
			DeadlineMS: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, st.ID)
		s.pool.Release()
		if final.State != StateFailed {
			t.Fatalf("frozen job ended %s (%s), want failed", final.State, final.Err)
		}
		if len(final.Platforms) == 0 {
			t.Fatal("failed job carries no platform attribution")
		}
		return final
	}
	first := failOne()
	failOne()

	var excluded []string
	for _, tn := range s.Tenants() {
		if tn.Name == "trouble" {
			excluded = tn.ExcludedPlatforms
		}
	}
	if len(excluded) == 0 {
		t.Fatalf("no platform excluded for tenant after %d deadline failures", 2)
	}

	// The sick tenant's next job avoids the excluded platform and can
	// still succeed on the remaining ones.
	st, err := s.Submit(wordcountReq("trouble", 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("post-breaker job ended %s (%s)", final.State, final.Err)
	}
	for _, p := range final.Platforms {
		for _, ex := range excluded {
			if p == ex {
				t.Fatalf("tenant's plan still used excluded platform %s", p)
			}
		}
	}

	// A healthy tenant is untouched: same workload, free platform choice.
	st, err = s.Submit(wordcountReq("healthy", 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	healthy := waitTerminal(t, s, st.ID)
	if healthy.State != StateSucceeded {
		t.Fatalf("healthy tenant's job ended %s (%s)", healthy.State, healthy.Err)
	}
	for _, tn := range s.Tenants() {
		if tn.Name == "healthy" && len(tn.ExcludedPlatforms) > 0 {
			t.Fatalf("healthy tenant inherited exclusions %v", tn.ExcludedPlatforms)
		}
	}
	// The failing tenant's first failure must list the platform the
	// healthy tenant is still allowed to use — i.e. exclusion really is
	// per-tenant, not global.
	_ = first
}

// TestTenantBreakerHalfOpenProbe walks a tenant's breaker through the
// rest of the machine under the injected clock: the cool-down re-admits
// the platform for one probe, a failed probe re-opens at once (no second
// run-up to the threshold), a successful one closes and resets the streak.
func TestTenantBreakerHalfOpenProbe(t *testing.T) {
	var fake atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	s := newTestService(t, Config{
		MaxActiveJobs:    1,
		PoolSize:         1,
		FailureThreshold: 2,
		Cooldown:         time.Minute,
		Clock:            func() time.Time { return base.Add(time.Duration(fake.Load())) },
	})
	failOne := func() {
		t.Helper()
		if err := s.pool.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		st, err := s.Submit(Request{
			Tenant:     "trouble",
			Spec:       Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 200},
			DeadlineMS: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, st.ID)
		s.pool.Release()
		if final.State != StateFailed || len(final.Platforms) == 0 {
			t.Fatalf("frozen job ended %s on %v (%s), want failed with platforms", final.State, final.Platforms, final.Err)
		}
	}
	excluded := func() []string {
		for _, tn := range s.Tenants() {
			if tn.Name == "trouble" {
				return tn.ExcludedPlatforms
			}
		}
		return nil
	}
	expect := func(when string, open bool) {
		t.Helper()
		if got := excluded(); (len(got) > 0) != open {
			t.Fatalf("%s: excluded platforms %v, want open=%v", when, got, open)
		}
	}

	failOne()
	expect("one failure, threshold 2", false)
	failOne()
	expect("two failures", true)
	fake.Add(int64(30 * time.Second))
	expect("half the cool-down", true)
	fake.Add(int64(31 * time.Second))
	expect("cool-down over: half-open", false)
	failOne()
	expect("failed probe", true)

	fake.Add(int64(61 * time.Second))
	st, err := s.Submit(wordcountReq("trouble", 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, st.ID); final.State != StateSucceeded {
		t.Fatalf("probe job ended %s (%s)", final.State, final.Err)
	}
	expect("successful probe", false)
	failOne()
	expect("one failure after the breaker closed", false)
}

// TestJobHistoryEviction bounds the finished-job table.
func TestJobHistoryEviction(t *testing.T) {
	s := newTestService(t, Config{JobHistory: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := s.Submit(wordcountReq("acme", 100, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, st.ID)
		ids = append(ids, st.ID)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Fatalf("job table holds %d jobs, want 2", got)
	}
	if _, err := s.Status(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted job still queryable: %v", err)
	}
	if _, err := s.Status(ids[4]); err != nil {
		t.Fatalf("recent job evicted: %v", err)
	}
}

// TestDrainFinishesAcceptedJobs: drain with work frozen behind the
// pool; once unfrozen everything accepted completes, admission stays
// closed, and the drain metrics fire.
func TestDrainFinishesAcceptedJobs(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 2, PoolSize: 1, DrainTimeout: 20 * time.Second})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(wordcountReq("acme", 150, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	drainDone := make(chan DrainReport, 1)
	go func() {
		rep, err := s.Drain(context.Background())
		if err != nil {
			t.Errorf("drain: %v", err)
		}
		drainDone <- rep
	}()

	// Wait until the drain has observably begun (the gauge flips before
	// anything else happens), then admission must be closed.
	closedDeadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := s.hub.Registry().Snapshot().Counter("service_draining", nil)
		if v == 1 {
			break
		}
		if time.Now().After(closedDeadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(wordcountReq("late", 100, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission mid-drain got %v, want ErrDraining", err)
	}

	s.pool.Release()
	rep := <-drainDone
	if rep.Forced {
		t.Fatal("drain had to force-cancel despite released pool")
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("acked job %s lost after drain: %v", id, err)
		}
		if st.State != StateSucceeded {
			t.Fatalf("drained job %s ended %s (%s), want succeeded", id, st.State, st.Err)
		}
	}
	snap := s.hub.Registry().Snapshot()
	if v, ok := snap.Counter("service_draining", nil); !ok || v != 0 {
		t.Fatalf("service_draining = %v (present %v) after drain, want 0", v, ok)
	}
	if v, ok := snap.Counter("service_drain_seconds", nil); !ok || v <= 0 {
		t.Fatalf("service_drain_seconds = %v (present %v), want > 0", v, ok)
	}
}

// TestDrainTimeoutForceCancels: when in-flight work outlives the
// drain budget it is force-cancelled — observable, never lost.
func TestDrainTimeoutForceCancels(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 1, PoolSize: 1, DrainTimeout: 50 * time.Millisecond})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(wordcountReq("acme", 150, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rep, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !rep.Forced {
		t.Fatal("drain with a frozen pool finished without forcing")
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("acked job %s lost after forced drain: %v", id, err)
		}
		if st.State != StateCancelled {
			t.Fatalf("forced-drain job %s ended %s, want cancelled", id, st.State)
		}
	}
}

func TestServiceMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{})
	st, err := s.Submit(wordcountReq("acme", 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	snap := s.hub.Registry().Snapshot()
	if got, ok := snap.Counter("service_jobs_accepted_total", map[string]string{"tenant": "acme"}); !ok || got != 1 {
		t.Fatalf("accepted counter = %v (present %v), want 1", got, ok)
	}
	if got, ok := snap.Counter("service_jobs_done_total", map[string]string{"tenant": "acme", "state": StateSucceeded}); !ok || got != 1 {
		t.Fatalf("done counter = %v (present %v), want 1", got, ok)
	}
	if n, ok := snap.HistogramCount("service_job_latency_seconds", map[string]string{"tenant": "acme"}); !ok || n != 1 {
		t.Fatalf("latency histogram count = %v (present %v), want 1", n, ok)
	}
}

func TestRunTrackerHistoryBoundedByService(t *testing.T) {
	hub := metrics.NewHub()
	s := newTestService(t, Config{Hub: hub, RunHistory: 3})
	for i := 0; i < 8; i++ {
		st, err := s.Submit(wordcountReq("acme", 100, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, st.ID)
	}
	if got := hub.Runs().Tracked(); got > 3 {
		t.Fatalf("hub tracks %d finished runs, service capped it at 3", got)
	}
}

func TestResultBeforeCompletionConflicts(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()
	st, err := s.Submit(wordcountReq("acme", 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Result(st.ID); err == nil {
		t.Fatal("result of unfinished job returned without error")
	}
	if _, _, err := s.Result("j-404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("result of unknown job: %v, want ErrNotFound", err)
	}
}

func TestPlatformPinRuns(t *testing.T) {
	s := newTestService(t, Config{})
	for _, pin := range []string{"java", "spark", "relational"} {
		st, err := s.Submit(Request{
			Tenant:   "pinner",
			Spec:     Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 200, Seed: 4},
			Platform: pin,
		})
		if err != nil {
			t.Fatalf("pin %s: %v", pin, err)
		}
		final := waitTerminal(t, s, st.ID)
		if final.State != StateSucceeded {
			t.Fatalf("pinned(%s) job ended %s (%s)", pin, final.State, final.Err)
		}
		if len(final.Platforms) != 1 || final.Platforms[0] != pin {
			t.Fatalf("pinned(%s) job ran on %v", pin, final.Platforms)
		}
	}
}

func TestLoadGenerator(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 4})
	res, err := RunLoad(s, LoadConfig{
		Tenants:       2,
		JobsPerTenant: 3,
		Concurrency:   2,
		Specs: []Spec{
			{Kind: KindWorkload, Workload: WorkloadWordcount, N: 150, Seed: 1},
			{Kind: KindWorkload, Workload: WorkloadFanout, N: 32, Branches: 2, Seed: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 6 || res.Succeeded != 6 {
		t.Fatalf("load run: %+v, want 6 accepted and succeeded", res)
	}
	if res.Throughput <= 0 || res.P99 <= 0 || res.P50 > res.P99 {
		t.Fatalf("implausible load metrics: %+v", res)
	}
}

func ExampleService() {
	s, err := New(Config{CatalogScale: 200})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	st, _ := s.Submit(Request{
		Tenant: "demo",
		Spec:   Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 100, Seed: 1},
	})
	final, _ := s.Wait(context.Background(), st.ID)
	fmt.Println(final.State)
	// Output: succeeded
}

// TestPanickingJobFailsAndServerKeepsServing: a job whose plan panics —
// a query over a table whose rows are shorter than its schema, so the
// compiled predicate indexes past its record — ends failed with the
// panic in its error, and the same server runs the next job. Before the
// atom runner recovered panics this took the process down, and every
// tenant's jobs with it.
func TestPanickingJobFailsAndServerKeepsServing(t *testing.T) {
	s := newTestService(t, Config{})
	schema, err := data.NewSchema(data.Field{Name: "a", Type: data.KindInt}, data.Field{Name: "b", Type: data.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	short := []data.Record{data.NewRecord(data.Int(1)), data.NewRecord(data.Int(2))}
	if err := s.cat.Register("short", schema, short); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(Request{Tenant: "acme", Spec: Spec{Kind: KindSQL, Query: "SELECT a FROM short WHERE b > 0"}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Err, "panicked: runtime error: index out of range") {
		t.Fatalf("panicking job ended %s (%s), want failed with the panic", final.State, final.Err)
	}
	if final.Failovers != 0 {
		t.Errorf("a panic is deterministic, yet the job failed over %d times", final.Failovers)
	}
	st, err = s.Submit(wordcountReq("acme", 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	if next := waitTerminal(t, s, st.ID); next.State != StateSucceeded {
		t.Fatalf("the job after the panic ended %s (%s)", next.State, next.Err)
	}
}

// TestOversizedWorkloadRejected: a workload sized to overflow a make — it
// used to be accepted, and the dispatch goroutine died generating its
// input, taking the process with it — is refused at the door, as is one
// merely too large to hold.
func TestOversizedWorkloadRejected(t *testing.T) {
	s := newTestService(t, Config{})
	for _, spec := range []Spec{
		{Kind: KindWorkload, Workload: WorkloadSensor, N: 1 << 62},
		{Kind: KindWorkload, Workload: WorkloadWordcount, N: MaxWorkloadN + 1},
		{Kind: KindWorkload, Workload: WorkloadFanout, N: 10, Branches: MaxBranches + 1},
		{Kind: KindWorkload, Workload: WorkloadSensor, N: 10, Wells: MaxWells + 1},
	} {
		_, err := s.Submit(Request{Spec: spec})
		var shed *ShedError
		if err == nil || errors.As(err, &shed) || !strings.Contains(err.Error(), "too large") {
			t.Errorf("%+v: Submit returned %v, want a too-large rejection", spec, err)
		}
	}
	st, err := s.Submit(Request{Spec: Spec{Kind: KindWorkload, Workload: WorkloadFanout, N: 10, Branches: MaxBranches}})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, st.ID); final.State != StateSucceeded {
		t.Errorf("the widest fanout allowed ended %s (%s)", final.State, final.Err)
	}
}

// TestPanickingPlanBuilderFailsTheJob: building a workload's plan runs on
// the job's goroutine, outside any atom, so a panic in it needs its own
// recover: the job fails with the panic and its stack, the next one runs.
func TestPanickingPlanBuilderFailsTheJob(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	// Hold the only pool slot: the first job blocks in the executor, the
	// second waits in the queue, where its builder can be swapped.
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	head, err := s.Submit(wordcountReq("acme", 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, head.ID, StateRunning)
	st, err := s.Submit(wordcountReq("acme", 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.jobs[st.ID].buildPlan = func() (*plan.Plan, error) { panic("builder blew up") }
	s.mu.Unlock()
	s.pool.Release()
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Err, "panicked: builder blew up") || !strings.Contains(final.Err, "goroutine ") {
		t.Fatalf("job with a panicking builder ended %s (%s), want failed with the panic and its stack", final.State, final.Err)
	}
	for _, id := range []string{head.ID, mustSubmit(t, s, wordcountReq("acme", 100, 3))} {
		if st := waitTerminal(t, s, id); st.State != StateSucceeded {
			t.Errorf("job %s beside the panicking builder ended %s (%s)", id, st.State, st.Err)
		}
	}
}

func mustSubmit(t *testing.T, s *Service, req Request) string {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}
