package executor

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// chaosRegistry builds a registry with the two real platforms plus a
// fault-injecting "chaos" platform that inherits the java engine's
// operator coverage — the survivors failover re-plans fall back to.
func chaosRegistry(t *testing.T, opts fault.Options) (*engine.Registry, *fault.Platform) {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	opts.ID = "chaos"
	p := fault.Wrap(javaengine.New(), opts)
	if err := fault.Register(reg, p, javaengine.ID); err != nil {
		t.Fatal(err)
	}
	return reg, p
}

// sortedRecordBytes encodes each record and sorts the encodings:
// failover may legitimately reorder union branches, so identity is
// per-record, not positional.
func sortedRecordBytes(t *testing.T, recs []data.Record) []string {
	t.Helper()
	out := make([]string, len(recs))
	for i, r := range recs {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, []data.Record{r}); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.String()
	}
	sort.Strings(out)
	return out
}

// TestChaosFailoverProducesIdenticalRecords is the acceptance chaos
// test: the platform originally assigned to the diamond's branches
// dies mid-run (one atom completes, then every execution fails), and
// the run must still complete — via cross-platform failover — with
// records identical to a fault-free run, the failed operators
// re-assigned off the dead platform, and the breaker tripped open.
func TestChaosFailoverProducesIdenticalRecords(t *testing.T) {
	pp, fa := faultPlan(t, []engine.PlatformID{"chaos", "chaos"})

	// Baseline: the same plan on a healthy chaos platform.
	cleanReg, _ := chaosRegistry(t, fault.Options{})
	cleanEP, err := optimizer.Optimize(pp, cleanReg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(cleanEP, cleanReg, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Chaos: the platform survives exactly one execution, then dies.
	reg, p := chaosRegistry(t, fault.Options{Schedules: []fault.Schedule{fault.FailAfterN(1, nil)}})
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	var failovers []trace.Event
	completedOnChaos := map[int]bool{} // op IDs finished on chaos pre-failover
	res, err := Run(ep, reg, Options{Parallelism: 2, RetryBackoff: -1, Tracer: trace.New(func(e trace.Event) {
		switch e.Kind {
		case trace.Failover:
			failovers = append(failovers, e)
		case trace.SpanEnd:
			if e.Err == nil && e.Span.Platform == "chaos" {
				for _, op := range e.Span.Atom.Ops {
					completedOnChaos[op.ID] = true
				}
			}
		}
	})})
	if err != nil {
		t.Fatalf("chaos run failed despite failover: %v", err)
	}
	if p.Stats().Injected == 0 {
		t.Fatal("fixture injected no failures")
	}

	// Byte-identical results (modulo union branch order).
	got, want := sortedRecordBytes(t, res.Records), sortedRecordBytes(t, clean.Records)
	if len(got) != len(want) {
		t.Fatalf("chaos run produced %d records, clean run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs between chaos and clean runs", i)
		}
	}

	// The failover is visible: counted, evented, and excluded from the
	// final assignment of every operator that was not already done.
	if res.Failovers < 1 {
		t.Errorf("Failovers = %d", res.Failovers)
	}
	if len(failovers) == 0 {
		t.Fatal("no Failover event observed")
	}
	fe := failovers[0]
	if fe.Atom == nil || fe.Atom.Platform != "chaos" {
		t.Errorf("failover event atom = %v", fe.Atom)
	}
	foundChaos := false
	for _, id := range fe.Excluded {
		if id == "chaos" {
			foundChaos = true
		}
	}
	if !foundChaos {
		t.Errorf("failover event excluded %v, missing chaos", fe.Excluded)
	}
	for opID, pl := range res.FinalPlan.Assignment {
		if pl == "chaos" && !completedOnChaos[opID] {
			t.Errorf("re-planned op %d still assigned to the dead platform", opID)
		}
	}
	// The two chaos atoms run concurrently, so the one permitted
	// execution can report its success after its sibling's failures;
	// that success is stale and leaves the breaker as they set it
	// (TestStaleSuccessDoesNotStopFailover pins the interleaving).
	if trips, _ := reg.Health().Transitions("chaos"); trips < 1 {
		t.Errorf("chaos breaker trips = %d, want at least one (final state %v)", trips, res.PlatformHealth["chaos"])
	}
	if res.Reoptimized {
		t.Error("failover must not consume the adaptive re-optimization budget")
	}
}

// TestChaosFailoverInLoopBody kills the loop body's platform after two
// iterations: the nested scheduler propagates the failover up without
// cancelling the run, the loop is re-planned onto a survivor, and the
// restarted loop still produces the exact fault-free result.
func TestChaosFailoverInLoopBody(t *testing.T) {
	reg, p := chaosRegistry(t, fault.Options{Schedules: []fault.Schedule{fault.FailAfterN(2, nil)}})

	bb := plan.NewBodyBuilder("body")
	li := bb.LoopInput("st")
	m := bb.Map(li, func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
	})
	bb.Collect(m)
	body := bb.MustBuild()

	b := plan.NewBuilder("loop")
	s := b.Source("s", plan.Collection(intRecords(1)))
	rep := b.Repeat(s, 5, body)
	b.Collect(rep)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	fa := map[int]engine.PlatformID{}
	var pin func(ops []*physical.Operator)
	pin = func(ops []*physical.Operator) {
		for _, op := range ops {
			if op.Kind() == plan.KindMap {
				fa[op.ID] = "chaos" // the loop body's worker
			} else {
				fa[op.ID] = javaengine.ID
			}
			if op.Body != nil {
				pin(op.Body.Ops)
			}
		}
	}
	pin(pp.Ops)
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	var failovers int
	res, err := Run(ep, reg, Options{RetryBackoff: -1, Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.Failover {
			failovers++
		}
	})})
	if err != nil {
		t.Fatalf("loop failover run failed: %v", err)
	}
	if p.Stats().Injected == 0 {
		t.Fatal("fixture injected no failures")
	}
	if failovers < 1 || res.Failovers < 1 {
		t.Errorf("failovers = %d (result %d), want ≥1", failovers, res.Failovers)
	}
	// 0 incremented 5 times, regardless of where the loop restarted.
	if len(res.Records) != 1 || res.Records[0].Field(0).Int() != 5 {
		t.Errorf("loop result = %v, want [5]", res.Records)
	}
	for opID, pl := range res.FinalPlan.Assignment {
		if pl == "chaos" {
			t.Errorf("op %d still assigned to the dead platform after loop failover", opID)
		}
	}
}

// TestFailoverNoCapablePlatformFails quarantines the only platform in
// the registry: failover has nowhere to go and the run must fail,
// reporting both the dead end and the original failure.
func TestFailoverNoCapablePlatformFails(t *testing.T) {
	reg := engine.NewRegistry()
	p := wrapJava(t, reg, "chaos", fault.Options{Schedules: []fault.Schedule{failAlways(nil)}})
	registerMapKinds(t, reg, "chaos")
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(3)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ep, reg, Options{RetryBackoff: -1})
	if err == nil {
		t.Fatal("run succeeded with every platform dead")
	}
	if !strings.Contains(err.Error(), "no capable platform") {
		t.Errorf("error does not name the failover dead end: %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("original failure lost from the error chain: %v", err)
	}
	if p.Stats().Injected == 0 {
		t.Error("fixture injected no failures")
	}
}

// TestFailoverByDefaultNotOnFatal pins the failover rule: with no
// option set, a failure that is not fatal on a platform whose breaker
// opened moves the rest of the run to the survivors, while a fatal one
// on the same dying platform is never failed over — it fails the run
// with its attempt accounting and leaves the breaker closed.
func TestFailoverByDefaultNotOnFatal(t *testing.T) {
	run := func(cause error) (*Result, *engine.Registry, error) {
		pp, fa := faultPlan(t, []engine.PlatformID{"chaos", "chaos"})
		reg, _ := chaosRegistry(t, fault.Options{Schedules: []fault.Schedule{fault.FailAfterN(1, cause)}})
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(ep, reg, Options{Parallelism: 2, RetryBackoff: -1})
		return res, reg, err
	}
	res, _, err := run(nil)
	if err != nil {
		t.Fatalf("a dying platform failed the run: %v", err)
	}
	if res.Failovers < 1 || len(res.Records) != 16 {
		t.Errorf("Failovers = %d with %d records, want ≥1 and 16", res.Failovers, len(res.Records))
	}

	_, reg, err := run(engine.Fatal(errBoom))
	if !errors.Is(err, errBoom) || !engine.IsFatal(err) {
		t.Fatalf("Run error = %v, want the injected fatal failure", err)
	}
	if !strings.Contains(err.Error(), "failed after 1 attempt") {
		t.Errorf("error lacks the attempt accounting: %v", err)
	}
	if st := reg.Health().State("chaos"); st != engine.BreakerClosed {
		t.Errorf("a fatal failure left the breaker %v", st)
	}
}

// warmedChaosCalibrator returns a calibrator with large applied
// corrections, in clashing directions, for every operator kind on
// every platform the chaos suite schedules on — including the doomed
// chaos platform itself, so the mid-run failover re-plan consults
// learned factors too.
func warmedChaosCalibrator(t *testing.T) *cost.Calibrator {
	t.Helper()
	cal := cost.NewCalibrator(cost.CalibratorConfig{})
	var atoms []cost.AtomObs
	var cards []cost.CardObs
	for k := plan.KindSource; k <= plan.KindSink; k++ {
		kind := k.String()
		for i, pl := range []engine.PlatformID{javaengine.ID, sparksim.ID, "chaos"} {
			est, act := time.Millisecond, 100*time.Millisecond
			if i%2 == 1 {
				est, act = 100*time.Millisecond, time.Millisecond
			}
			for j := 0; j < 4; j++ {
				atoms = append(atoms, cost.AtomObs{
					Kind: kind, Platform: string(pl), Estimated: est, Actual: act,
				})
			}
		}
		for j := 0; j < 4; j++ {
			cards = append(cards, cost.CardObs{Kind: kind, Estimated: 100, Actual: 3})
		}
	}
	cal.Fold(atoms, cards)
	return cal
}

// TestChaosFailoverWithWarmedCalibrator extends the acceptance chaos
// test to the learning loop: a warmed calibrator biases every cost the
// failover re-planner consults, and the run must still produce records
// byte-identical to the fault-free, calibration-free baseline.
// Calibration may change which survivor the re-plan picks — never what
// the run computes.
func TestChaosFailoverWithWarmedCalibrator(t *testing.T) {
	pp, fa := faultPlan(t, []engine.PlatformID{"chaos", "chaos"})
	cal := warmedChaosCalibrator(t)

	// Baseline: healthy platform, no calibration anywhere.
	cleanReg, _ := chaosRegistry(t, fault.Options{})
	cleanEP, err := optimizer.Optimize(pp, cleanReg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(cleanEP, cleanReg, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRecordBytes(t, clean.Records)

	// Warmed but fault-free: calibration alone must not move results.
	calmReg, _ := chaosRegistry(t, fault.Options{})
	calmEP, err := optimizer.Optimize(pp, calmReg, optimizer.Options{DisableRules: true, ForcedAssignments: fa, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	calm, err := Run(calmEP, calmReg, Options{Parallelism: 2, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRecordBytes(t, calm.Records); strings.Join(got, "\x00") != strings.Join(want, "\x00") {
		t.Fatal("warmed calibrator changed fault-free results")
	}

	// Warmed AND dying mid-run: the failover re-plan runs through the
	// calibrated cost model and must still land on identical records.
	reg, p := chaosRegistry(t, fault.Options{Schedules: []fault.Schedule{fault.FailAfterN(1, nil)}})
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{Parallelism: 2, RetryBackoff: -1, Calibration: cal})
	if err != nil {
		t.Fatalf("chaos run with warmed calibrator failed despite failover: %v", err)
	}
	if p.Stats().Injected == 0 {
		t.Fatal("fixture injected no failures")
	}
	if res.Failovers < 1 {
		t.Errorf("Failovers = %d, want >= 1", res.Failovers)
	}
	got := sortedRecordBytes(t, res.Records)
	if len(got) != len(want) {
		t.Fatalf("chaos+calibration run produced %d records, baseline %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs between chaos+calibration and clean baseline", i)
		}
	}
	if folds := cal.Folds(); folds != 1 {
		t.Errorf("executor runs folded into the calibrator (folds=%d, want only the warm-up's 1)", folds)
	}
}

// heldPlatform is the java engine under the ID "chaos". Its first
// execution succeeds but is held until the fourth call; every other
// execution fails. With two chaos atoms, calls two to four are the
// sibling's three attempts, so the held success is reported after two
// of the sibling's failures were, and the fourth call returns only once
// it has been.
type heldPlatform struct {
	engine.Platform
	mu       sync.Mutex
	calls    int
	release  chan struct{} // closed by the fourth call
	reported chan struct{} // closed when the held atom's span ends
}

func (p *heldPlatform) ID() engine.PlatformID { return "chaos" }

func (p *heldPlatform) ExecuteAtom(ctx context.Context, atom *engine.TaskAtom, inputs engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	p.mu.Lock()
	p.calls++
	call := p.calls
	p.mu.Unlock()
	await := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("held: the interleaving never happened")
		}
	}
	switch call {
	case 1:
		if err := await(p.release); err != nil {
			return nil, engine.Metrics{}, err
		}
		return p.Platform.ExecuteAtom(ctx, atom, inputs)
	case 4:
		close(p.release)
		if err := await(p.reported); err != nil {
			return nil, engine.Metrics{}, err
		}
	}
	return nil, engine.Metrics{Jobs: 1}, errors.New("held: injected failure")
}

// TestStaleSuccessDoesNotStopFailover is the chaos failover's race made
// deterministic: the one permitted execution on the dying platform
// started before its sibling failed and reports its success between
// the sibling's second and third failure. That success is stale: it
// must not reset the sibling's streak, so the third failure opens the
// breaker and the run fails over instead of failing.
func TestStaleSuccessDoesNotStopFailover(t *testing.T) {
	pp, fa := faultPlan(t, []engine.PlatformID{"chaos", "chaos"})
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	p := &heldPlatform{Platform: javaengine.New(), release: make(chan struct{}), reported: make(chan struct{})}
	if err := reg.RegisterPlatform(p); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloneMappings(javaengine.ID, p.ID()); err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	res, err := Run(ep, reg, Options{Parallelism: 2, RetryBackoff: -1, Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.SpanEnd && e.Err == nil && e.Span.Platform == p.ID() {
			once.Do(func() { close(p.reported) })
		}
	})})
	if err != nil {
		t.Fatalf("a stale success stopped the failover: %v", err)
	}
	if res.Failovers < 1 || len(res.Records) != 16 {
		t.Errorf("Failovers = %d with %d records, want ≥1 and 16", res.Failovers, len(res.Records))
	}
	if st := reg.Health().State(p.ID()); st != engine.BreakerOpen {
		t.Errorf("chaos breaker = %v after the run, want open", st)
	}
}
