// Chaos coverage for the service's central promise: an acked job is
// never silently lost, and whatever the server returns for a spec is
// byte-identical to the spec's clean offline execution — through
// drain, kill-mid-drain, and platform failure under concurrent
// multi-tenant load.
package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rheem"
	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// expectedDigests executes each spec on a clean, unfaulted service and
// returns its canonical result digest — the offline ground truth the
// chaos runs are held to.
func expectedDigests(t *testing.T, specs []Spec) []string {
	t.Helper()
	clean := newTestService(t, Config{})
	out := make([]string, len(specs))
	for i, spec := range specs {
		st, err := clean.Submit(Request{Tenant: "oracle", Spec: spec})
		if err != nil {
			t.Fatalf("oracle submit %d: %v", i, err)
		}
		final := waitTerminal(t, clean, st.ID)
		if final.State != StateSucceeded {
			t.Fatalf("oracle run %d ended %s (%s)", i, final.State, final.Err)
		}
		out[i] = final.Digest
	}
	return out
}

func chaosSpecs() []Spec {
	return []Spec{
		{Kind: KindWorkload, Workload: WorkloadWordcount, N: 300, Seed: 11},
		{Kind: KindWorkload, Workload: WorkloadSensor, N: 400, Wells: 8, Seed: 12},
		{Kind: KindWorkload, Workload: WorkloadFanout, N: 48, Branches: 3, Seed: 13},
	}
}

// TestChaosDrainUnderLoad runs concurrent multi-tenant submitters,
// drains mid-stream, and verifies the no-loss contract: every job the
// server acked is terminal afterwards, every success byte-identical
// to the clean run, and nothing was force-cancelled (the drain budget
// was generous).
func TestChaosDrainUnderLoad(t *testing.T) {
	specs := chaosSpecs()
	want := expectedDigests(t, specs)

	s := newTestService(t, Config{
		MaxActiveJobs: 3,
		DrainTimeout:  60 * time.Second,
	})
	type acked struct {
		id   string
		spec int
	}
	var (
		mu    sync.Mutex
		acks  []acked
		wg    sync.WaitGroup
		ready = make(chan struct{}) // closed once enough jobs are acked
		once  sync.Once
	)
	const tenants = 3
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			for i := 0; ; i++ {
				specIdx := (tn + i) % len(specs)
				st, err := s.Submit(Request{
					Tenant: fmt.Sprintf("tenant-%d", tn),
					Spec:   specs[specIdx],
				})
				if errors.Is(err, ErrDraining) {
					return
				}
				var shed *ShedError
				if errors.As(err, &shed) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("tenant %d submit: %v", tn, err)
					return
				}
				mu.Lock()
				acks = append(acks, acked{id: st.ID, spec: specIdx})
				n := len(acks)
				mu.Unlock()
				if n >= 12 {
					once.Do(func() { close(ready) })
				}
			}
		}(tn)
	}

	<-ready
	rep, err := s.Drain(context.Background())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if rep.Forced {
		t.Fatal("drain force-cancelled despite a 60s budget")
	}
	if rep.Duration <= 0 {
		t.Fatalf("drain report duration %v", rep.Duration)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(acks) < 12 {
		t.Fatalf("only %d jobs acked", len(acks))
	}
	for _, a := range acks {
		st, err := s.Status(a.id)
		if err != nil {
			t.Fatalf("acked job %s lost after drain: %v", a.id, err)
		}
		if st.State != StateSucceeded {
			t.Fatalf("acked job %s ended %s (%s) after graceful drain", a.id, st.State, st.Err)
		}
		if st.Digest != want[a.spec] {
			t.Fatalf("job %s digest %s differs from clean run %s — results are not byte-identical",
				a.id, st.Digest, want[a.spec])
		}
	}
}

// TestChaosKillMidDrain escalates a hanging drain the way rheem-serve
// does on a second SIGTERM: work is frozen behind the scheduler pool,
// the drain can't finish, Kill cuts the engine context — and still no
// acked job is lost: every one lands in an observable terminal state.
func TestChaosKillMidDrain(t *testing.T) {
	s := newTestService(t, Config{
		MaxActiveJobs: 2,
		PoolSize:      1,
		DrainTimeout:  60 * time.Second, // the drain would hang without Kill
	})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()

	var ids []string
	for i := 0; i < 6; i++ {
		st, err := s.Submit(Request{
			Tenant: fmt.Sprintf("tenant-%d", i%2),
			Spec:   Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 200, Seed: uint64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	drainDone := make(chan DrainReport, 1)
	go func() {
		rep, _ := s.Drain(context.Background())
		drainDone <- rep
	}()
	// Wait for the drain to observably start, then escalate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := s.hub.Registry().Snapshot().Counter("service_draining", nil); v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Kill()

	select {
	case <-drainDone:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not finish after Kill")
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("acked job %s lost after kill: %v", id, err)
		}
		if st.State != StateCancelled {
			t.Fatalf("job %s ended %s after kill, want cancelled", id, st.State)
		}
		if st.Ended.IsZero() {
			t.Fatalf("job %s terminal without an end timestamp", id)
		}
	}
	if _, err := s.Submit(Request{Spec: Spec{Kind: KindWorkload, Workload: WorkloadFanout}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after kill: %v, want ErrDraining", err)
	}
}

// TestChaosPlatformDeathUnderLoad injects a platform that dies after a
// handful of executions while three tenants hammer it with pinned
// jobs. Cross-platform failover must rescue every job, and every
// result must be byte-identical to the clean run — the acked-job
// contract holds through real platform failure.
func TestChaosPlatformDeathUnderLoad(t *testing.T) {
	specs := chaosSpecs()
	want := expectedDigests(t, specs)

	s := newTestService(t, Config{
		MaxActiveJobs: 3,
		Prepare: func(c *rheem.Context) error {
			flaky := fault.Wrap(javaengine.New(), fault.Options{
				ID: "flaky",
				// Dies after 5 executions — mid-load, deterministically.
				Schedules: []fault.Schedule{fault.FailAfterN(5, nil)},
			})
			return fault.Register(c.Registry(), flaky, javaengine.ID)
		},
	})

	type result struct {
		id   string
		spec int
	}
	var (
		mu   sync.Mutex
		jobs []result
		wg   sync.WaitGroup
	)
	const tenants, perTenant = 3, 4
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				specIdx := (tn + i) % len(specs)
				st, sheds, err := submitPersistent(s, Request{
					Tenant:   fmt.Sprintf("tenant-%d", tn),
					Spec:     specs[specIdx],
					Platform: "flaky", // everyone starts on the doomed platform
				}, 30*time.Second)
				_ = sheds
				if err != nil {
					t.Errorf("tenant %d submit: %v", tn, err)
					return
				}
				mu.Lock()
				jobs = append(jobs, result{id: st.ID, spec: specIdx})
				mu.Unlock()
			}
		}(tn)
	}
	wg.Wait()

	failovers := 0
	for _, jr := range jobs {
		final := waitTerminal(t, s, jr.id)
		if final.State != StateSucceeded {
			t.Fatalf("job %s on the dying platform ended %s (%s) — failover did not rescue it",
				jr.id, final.State, final.Err)
		}
		if final.Digest != want[jr.spec] {
			t.Fatalf("job %s digest %s differs from clean run %s after failover",
				jr.id, final.Digest, want[jr.spec])
		}
		failovers += final.Failovers
	}
	if got := tenants * perTenant; len(jobs) != got {
		t.Fatalf("acked %d jobs, want %d", len(jobs), got)
	}
	if failovers == 0 {
		t.Fatal("the platform died but no job reported a failover — the fault never fired")
	}
}

// TestTenantExclusionsSurviveFailover: a tenant whose health keeps the
// java engine out of its plans runs a job that lands on a java twin,
// which then dies. The failover re-plan must still honour the tenant's
// exclusion — no operator on java — and the answer must match the clean
// run's.
func TestTenantExclusionsSurviveFailover(t *testing.T) {
	spec := Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 300, Seed: 11}
	want := expectedDigests(t, []Spec{spec})[0]

	s := newTestService(t, Config{
		FailureThreshold: 1,
		Cooldown:         time.Hour,
		Prepare: func(c *rheem.Context) error {
			// java's operator coverage and costs, dead from the first call.
			twin := fault.Wrap(javaengine.New(), fault.Options{
				ID:        "twin",
				Schedules: []fault.Schedule{fault.FailAfterN(0, nil)},
			})
			return fault.Register(c.Registry(), twin, javaengine.ID)
		},
	})
	s.mu.Lock()
	tn, err := s.tenantLocked("isolated", s.now())
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tn.reportOutcome([]engine.PlatformID{javaengine.ID}, true, 0)
	if ex := tn.health.QuarantinedPlatforms(); len(ex) != 1 || ex[0] != javaengine.ID {
		t.Fatalf("tenant excludes %v, want java alone", ex)
	}

	st, err := s.Submit(Request{Tenant: "isolated", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job ended %s (%s), want a failover off the dead twin", final.State, final.Err)
	}
	if final.Failovers < 1 {
		t.Fatalf("Failovers = %d: the job never reached the twin", final.Failovers)
	}
	for _, pl := range final.Platforms {
		if pl == string(javaengine.ID) || pl == "twin" {
			t.Errorf("the failover re-plan used %s (plan on %v)", pl, final.Platforms)
		}
	}
	if final.Digest != want {
		t.Errorf("digest %s after failover, clean run %s", final.Digest, want)
	}
}

// TestFailedJobReportsItsLastPlan: a tenant kept off the three bundled
// platforms runs a job on one of two dead java twins; it fails over to
// the other, which is dead too. The failed job must report the failover
// and the platform it failed on — the one its tenant's health is charged
// for — not the plan it started from.
func TestFailedJobReportsItsLastPlan(t *testing.T) {
	s := newTestService(t, Config{
		FailureThreshold: 1,
		Cooldown:         time.Hour,
		Prepare: func(c *rheem.Context) error {
			for _, id := range []engine.PlatformID{"twin-a", "twin-b"} {
				dead := fault.Wrap(javaengine.New(), fault.Options{ID: id, Schedules: []fault.Schedule{fault.FailAfterN(0, nil)}})
				if err := fault.Register(c.Registry(), dead, javaengine.ID); err != nil {
					return err
				}
			}
			return nil
		},
	})
	s.mu.Lock()
	tn, err := s.tenantLocked("doomed", s.now())
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tn.reportOutcome([]engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID}, true, 0)

	st, err := s.Submit(Request{Tenant: "doomed", Spec: Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 100, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed {
		t.Fatalf("job ended %s (%s), want failed on both twins", final.State, final.Err)
	}
	if final.Failovers != 1 {
		t.Errorf("Failovers = %d, want the one failover between the twins", final.Failovers)
	}
	if len(final.Platforms) != 1 {
		t.Fatalf("job reports platforms %v, want the one twin it failed on", final.Platforms)
	}
	excluded := tn.health.QuarantinedPlatforms()
	if !slices.Contains(excluded, engine.PlatformID(final.Platforms[0])) {
		t.Errorf("tenant excludes %v, want the %s the job reports failing on", excluded, final.Platforms[0])
	}
}
