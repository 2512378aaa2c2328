package rheem_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"

	"rheem"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// allPlatforms are the run configurations every correctness test is
// repeated under: each platform pinned, plus free optimizer choice.
var allPlatforms = []struct {
	name string
	opts []rheem.RunOption
}{
	{"java", []rheem.RunOption{rheem.OnPlatform(javaengine.ID)}},
	{"spark", []rheem.RunOption{rheem.OnPlatform(sparksim.ID)}},
	{"relational", []rheem.RunOption{rheem.OnPlatform(relengine.ID)}},
	{"optimizer", nil},
}

func newCtx(t *testing.T) *rheem.Context {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func sortedStrings(recs []data.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func assertSameResult(t *testing.T, build func(*rheem.Job) *rheem.DataQuanta) {
	t.Helper()
	ctx := newCtx(t)
	var want []string
	for _, pc := range allPlatforms {
		recs, rep, err := build(ctx.NewJob("t-" + pc.name)).Collect(pc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		got := sortedStrings(recs)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d\n got: %v\nwant: %v", pc.name, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = %s, want %s", pc.name, i, got[i], want[i])
			}
		}
		if rep.Metrics.Jobs < 1 {
			t.Errorf("%s: no jobs recorded", pc.name)
		}
		if rep.Metrics.Sim <= 0 {
			t.Errorf("%s: simulated time not accounted", pc.name)
		}
	}
}

func TestWordCountAllPlatforms(t *testing.T) {
	words := datagen.Words(500, 1)
	assertSameResult(t, func(j *rheem.Job) *rheem.DataQuanta {
		return j.ReadCollection("words", words).
			Map(func(r data.Record) (data.Record, error) {
				return r.Append(data.Int(1)), nil
			}).
			ReduceByKey(plan.FieldKey(0), plan.SumField(1))
	})
}

func TestFilterSortAllPlatforms(t *testing.T) {
	recs := datagen.ZipfInts(300, 50, 3)
	assertSameResult(t, func(j *rheem.Job) *rheem.DataQuanta {
		return j.ReadCollection("ints", recs).
			Filter(func(r data.Record) (bool, error) {
				return r.Field(0).Int()%2 == 0, nil
			}, 0.5).
			Distinct().
			Sort(plan.FieldKey(0), false)
	})
}

func TestJoinAllPlatforms(t *testing.T) {
	var left, right []data.Record
	for i := int64(0); i < 60; i++ {
		left = append(left, data.NewRecord(data.Int(i%10), data.Int(i)))
	}
	for i := int64(0); i < 20; i++ {
		right = append(right, data.NewRecord(data.Int(i%10), data.Str("r")))
	}
	assertSameResult(t, func(j *rheem.Job) *rheem.DataQuanta {
		l := j.ReadCollection("l", left)
		r := j.ReadCollection("r", right)
		return l.Join(r, plan.FieldKey(0), plan.FieldKey(0))
	})
}

func TestThetaJoinIEConditionsAllPlatforms(t *testing.T) {
	var left, right []data.Record
	for i := int64(0); i < 40; i++ {
		left = append(left, data.NewRecord(data.Int(i%13), data.Int((i*7)%11)))
		right = append(right, data.NewRecord(data.Int(i%7), data.Int(i%5)))
	}
	conds := []plan.IECondition{
		{LeftField: 0, Op: plan.Greater, RightField: 0},
		{LeftField: 1, Op: plan.Less, RightField: 1},
	}
	assertSameResult(t, func(j *rheem.Job) *rheem.DataQuanta {
		l := j.ReadCollection("l", left)
		r := j.ReadCollection("r", right)
		return l.ThetaJoin(r, nil, conds...)
	})
}

func TestCartesianCountAllPlatforms(t *testing.T) {
	a := datagen.Words(15, 5)
	b := datagen.Words(11, 6)
	assertSameResult(t, func(j *rheem.Job) *rheem.DataQuanta {
		return j.ReadCollection("a", a).
			Cartesian(j.ReadCollection("b", b)).
			Count()
	})
}

func TestUnionGroupByAllPlatforms(t *testing.T) {
	a := datagen.ZipfInts(100, 10, 7)
	b := datagen.ZipfInts(80, 10, 8)
	assertSameResult(t, func(j *rheem.Job) *rheem.DataQuanta {
		return j.ReadCollection("a", a).
			Union(j.ReadCollection("b", b)).
			GroupBy(plan.FieldKey(0), func(k data.Value, grp []data.Record) ([]data.Record, error) {
				return []data.Record{data.NewRecord(k, data.Int(int64(len(grp))))}, nil
			}).
			Sort(plan.FieldKey(0), false)
	})
}

func TestRepeatLoopAllPlatforms(t *testing.T) {
	// State: single record holding a counter; the body increments it.
	init := []data.Record{data.NewRecord(data.Int(0))}
	assertSameResult(t, func(j *rheem.Job) *rheem.DataQuanta {
		return j.ReadCollection("init", init).
			Repeat(7, func(_ *rheem.LoopBody, state *rheem.DataQuanta) *rheem.DataQuanta {
				return state.Map(func(r data.Record) (data.Record, error) {
					return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
				})
			})
	})
	// And explicitly check the value.
	ctx := newCtx(t)
	recs, _, err := ctx.NewJob("repeat").ReadCollection("init", init).
		Repeat(7, func(_ *rheem.LoopBody, state *rheem.DataQuanta) *rheem.DataQuanta {
			return state.Map(func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
			})
		}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Field(0).Int() != 7 {
		t.Fatalf("loop result = %v", recs)
	}
}

func TestDoWhileLoop(t *testing.T) {
	ctx := newCtx(t)
	init := []data.Record{data.NewRecord(data.Int(1))}
	recs, _, err := ctx.NewJob("dowhile").ReadCollection("init", init).
		DoWhile(func(_ int, state []data.Record) (bool, error) {
			return state[0].Field(0).Int() < 100, nil
		}, 50, func(_ *rheem.LoopBody, state *rheem.DataQuanta) *rheem.DataQuanta {
			return state.Map(func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int() * 2)), nil
			})
		}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// 1 →2→4→...→128 (first value ≥ 100 stops the loop).
	if len(recs) != 1 || recs[0].Field(0).Int() != 128 {
		t.Fatalf("dowhile result = %v", recs)
	}
}

func TestLoopBodyWithSource(t *testing.T) {
	// The body joins loop state (a threshold) with data read inside the
	// body — the broadcast-style pattern the ML application uses.
	points := datagen.ZipfInts(50, 30, 9)
	ctx := newCtx(t)
	init := []data.Record{data.NewRecord(data.Int(0))}
	recs, _, err := ctx.NewJob("bodysource").ReadCollection("init", init).
		Repeat(3, func(lb *rheem.LoopBody, state *rheem.DataQuanta) *rheem.DataQuanta {
			pts := lb.ReadCollection("points", points)
			// state × points, keep the max point value seen, add 1.
			return state.Cartesian(pts).
				Reduce(func(a, b data.Record) (data.Record, error) {
					if a.Field(1).Int() >= b.Field(1).Int() {
						return a, nil
					}
					return b, nil
				}).
				Map(func(r data.Record) (data.Record, error) {
					return data.NewRecord(data.Int(r.Field(1).Int() + 1)), nil
				})
		}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	var maxVal int64
	for _, p := range points {
		if p.Field(0).Int() > maxVal {
			maxVal = p.Field(0).Int()
		}
	}
	if len(recs) != 1 || recs[0].Field(0).Int() != maxVal+1 {
		t.Fatalf("body-source loop = %v, want %d", recs, maxVal+1)
	}
}

func TestExplainShowsAtomsAndAlgorithms(t *testing.T) {
	ctx := newCtx(t)
	recs := datagen.ZipfInts(1000, 20, 2)
	j := ctx.NewJob("explain")
	q := j.ReadCollection("in", recs).
		ReduceByKey(plan.FieldKey(0), plan.SumField(0)).
		Sort(plan.FieldKey(0), false)
	p, err := q.Plan()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "atom#") {
		t.Errorf("Explain lacks atoms:\n%s", out)
	}
	if !strings.Contains(out, "groupby") && !strings.Contains(out, "GroupBy") && !strings.Contains(out, "ReduceByKey") {
		t.Errorf("Explain lacks operators:\n%s", out)
	}
}

func TestMonitorEvents(t *testing.T) {
	ctx := newCtx(t)
	var starts, dones int
	_, _, err := ctx.NewJob("mon").
		ReadCollection("in", datagen.Words(50, 3)).
		Distinct().
		Collect(rheem.WithMonitor(func(e trace.Event) {
			switch e.Kind {
			case trace.SpanStart:
				starts++
			case trace.SpanEnd:
				dones++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if starts == 0 || dones != starts {
		t.Errorf("monitor saw %d starts, %d dones", starts, dones)
	}
}

func TestOptimizerPrefersJavaForTinyInput(t *testing.T) {
	// A tiny input with per-job Spark overhead should land on the
	// single-node engine under free choice.
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Words(100, 4)
	j := ctx.NewJob("tiny")
	p, err := j.ReadCollection("in", recs).
		Map(func(r data.Record) (data.Record, error) { return r, nil }).Plan()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "@spark") {
		t.Errorf("tiny input scheduled on spark:\n%s", out)
	}
}

func TestCrossJobCombineRejected(t *testing.T) {
	ctx := newCtx(t)
	a := ctx.NewJob("a").ReadCollection("x", datagen.Words(5, 1))
	b := ctx.NewJob("b").ReadCollection("y", datagen.Words(5, 2))
	if _, _, err := a.Union(b).Collect(); err == nil {
		t.Error("union across jobs accepted")
	}
}

func TestPlatformRegistryExposed(t *testing.T) {
	ctx := newCtx(t)
	if len(ctx.Registry().Platforms()) != 3 {
		t.Errorf("got %d platforms", len(ctx.Registry().Platforms()))
	}
	ids := map[engine.PlatformID]bool{}
	for _, p := range ctx.Registry().Platforms() {
		ids[p.ID()] = true
	}
	for _, want := range []engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID} {
		if !ids[want] {
			t.Errorf("platform %s missing", want)
		}
	}
}

func TestWithTracingExposesTraceAndStats(t *testing.T) {
	ctx := newCtx(t)
	words := datagen.Words(300, 2)
	build := func(name string) *rheem.DataQuanta {
		return ctx.NewJob(name).ReadCollection("words", words).
			Map(func(r data.Record) (data.Record, error) {
				return r.Append(data.Int(1)), nil
			}).
			ReduceByKey(plan.FieldKey(0), plan.SumField(1))
	}

	// Default runs keep the report lean: no trace, no counters.
	_, rep, err := build("untraced").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil || rep.Telemetry != nil {
		t.Error("untraced run exposed trace or counters")
	}

	_, rep, err = build("traced").Collect(rheem.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("WithTracing run has no trace")
	}
	if len(rep.Trace.Spans) != len(rep.Plan.Atoms) {
		t.Errorf("%d spans for %d plan atoms", len(rep.Trace.Spans), len(rep.Plan.Atoms))
	}
	for _, sp := range rep.Trace.Spans {
		if sp.Platform == "" || sp.Failed() || len(sp.Attempts) == 0 {
			t.Errorf("span = %+v", sp)
		}
	}
	if rep.Telemetry == nil {
		t.Fatal("WithTracing run has no telemetry snapshot")
	}
	// The counters are folded from the same span stream as the trace:
	// both runs' atoms succeeded, and each platform counts them.
	for _, id := range rep.Trace.Platforms() {
		atoms, _ := rep.Telemetry.Counter("rheem_atoms_total", map[string]string{"platform": string(id), "status": "ok"})
		if int(atoms) < len(rep.Trace.SpansOn(id)) {
			t.Errorf("platform %s ran %d spans but counted %v atoms", id, len(rep.Trace.SpansOn(id)), atoms)
		}
		if errs, present := rep.Telemetry.Counter("rheem_atoms_total", map[string]string{"platform": string(id), "status": "error"}); present {
			t.Errorf("platform %s counted %v failed atoms in a clean run", id, errs)
		}
	}
}

// TestTracedReportSharesNoSliceWithRecorder: the trace a WithTracing
// caller receives is the caller's to change; the flight recorder and the
// calibrator read the run's own, so the two share no backing array.
func TestTracedReportSharesNoSliceWithRecorder(t *testing.T) {
	ctx := newCtx(t)
	rec := profile.NewRecorder(8, nil)
	ctx.Telemetry().SetFlightRecorder(rec)
	_, rep, err := ctx.NewJob("handover").ReadCollection("words", datagen.Words(200, 2)).
		Map(func(r data.Record) (data.Record, error) { return r.Append(data.Int(1)), nil }).
		ReduceByKey(plan.FieldKey(0), plan.SumField(1)).
		Collect(rheem.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	kept, ok := rec.Get(rep.RunID)
	if !ok {
		t.Fatalf("the recorder has no record of run %d", rep.RunID)
	}
	if len(rep.Trace.Spans) == 0 || len(rep.Trace.Spans) != len(kept.Spans) ||
		len(rep.Trace.Audits) == 0 || len(rep.Trace.Audits) != len(kept.Audits) {
		t.Fatalf("report holds %d spans and %d audits, the recorder %d and %d",
			len(rep.Trace.Spans), len(rep.Trace.Audits), len(kept.Spans), len(kept.Audits))
	}
	if &rep.Trace.Spans[0] == &kept.Spans[0] {
		t.Error("the report's spans share their backing array with the recorder's")
	}
	if &rep.Trace.Audits[0] == &kept.Audits[0] {
		t.Error("the report's audits share their backing array with the recorder's")
	}
}

// TestReportSnapshotsDoNotAlias pins the Report contract: the
// telemetry snapshot is a deep copy, so mutating a finished report
// cannot corrupt the live registry a subsequent run reads and extends.
func TestReportSnapshotsDoNotAlias(t *testing.T) {
	ctx := newCtx(t)
	words := datagen.Words(200, 2)
	run := func(name string) *rheem.Report {
		_, rep, err := ctx.NewJob(name).ReadCollection("words", words).
			Map(func(r data.Record) (data.Record, error) {
				return r.Append(data.Int(1)), nil
			}).
			ReduceByKey(plan.FieldKey(0), plan.SumField(1)).
			Collect(rheem.WithTracing())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	first := run("aliasing-1")
	if first.Telemetry == nil {
		t.Fatal("WithTracing run has no telemetry snapshot")
	}
	if v, ok := first.Telemetry.Counter("rheem_runs_total", nil); !ok || v != 1 {
		t.Fatalf("rheem_runs_total after first run = %v (present=%v)", v, ok)
	}

	okAtoms := func(rep *rheem.Report) (sum float64) {
		for _, id := range ctx.Registry().PlatformIDs() {
			v, _ := rep.Telemetry.Counter("rheem_atoms_total", map[string]string{"platform": string(id), "status": "ok"})
			sum += v
		}
		return sum
	}
	firstAtoms := okAtoms(first)
	if firstAtoms == 0 {
		t.Fatal("first run counted no executed atoms")
	}

	// Poison everything the first report handed out.
	for i := range first.Telemetry.Families {
		f := &first.Telemetry.Families[i]
		f.Name = "clobbered"
		for j := range f.Samples {
			f.Samples[j].Value = -999
			for k := range f.Samples[j].Buckets {
				f.Samples[j].Buckets[k].CumulativeCount = -999
			}
		}
	}

	second := run("aliasing-2")
	// The cumulative counter grew from where the first run left it,
	// untouched by the first report's mutation.
	if got := okAtoms(second); got <= firstAtoms {
		t.Errorf("executed atoms after the second run = %v, after the first %v", got, firstAtoms)
	}
	if v, ok := second.Telemetry.Counter("rheem_runs_total", nil); !ok || v != 2 {
		t.Errorf("rheem_runs_total after second run = %v (present=%v), want 2", v, ok)
	}
}

// TestTracingChaosFailover runs WithTracing through a failover
// under fault injection: the trace must contain spans for the failed
// attempts on the dying platform AND spans for the re-planned atoms on
// the survivors, consistent with the report's failover count.
func TestTracingChaosFailover(t *testing.T) {
	ctx := newCtx(t)
	// A chaos platform with java's operator coverage that survives
	// exactly one execution, then fails everything.
	p := fault.Wrap(javaengine.New(), fault.Options{
		ID:        "chaos",
		Schedules: []fault.Schedule{fault.FailAfterN(1, nil)},
	})
	if err := fault.Register(ctx.Registry(), p, javaengine.ID); err != nil {
		t.Fatal(err)
	}

	recs := make([]data.Record, 40)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)))
	}
	build := func(name string) *rheem.DataQuanta {
		j := ctx.NewJob(name)
		double := j.ReadCollection("a", recs).Map(func(r data.Record) (data.Record, error) {
			return data.NewRecord(data.Int(r.Field(0).Int() * 2)), nil
		})
		negate := j.ReadCollection("b", recs).Map(func(r data.Record) (data.Record, error) {
			return data.NewRecord(data.Int(-r.Field(0).Int())), nil
		})
		return double.Union(negate)
	}

	want := sortedStrings(mustCollect(t, build("chaos-clean"), rheem.OnPlatform(javaengine.ID)))

	got, rep, err := build("chaos-run").Collect(
		rheem.OnPlatform("chaos"), rheem.WithTracing())
	if err != nil {
		t.Fatalf("chaos run failed despite failover: %v", err)
	}
	if p.Stats().Injected == 0 {
		t.Fatal("fixture injected no failures")
	}
	if rep.Failovers < 1 {
		t.Fatalf("Failovers = %d, want ≥1", rep.Failovers)
	}
	gotSorted := sortedStrings(got)
	if len(gotSorted) != len(want) {
		t.Fatalf("chaos run produced %d records, clean run %d", len(gotSorted), len(want))
	}
	for i := range want {
		if gotSorted[i] != want[i] {
			t.Fatalf("record %d = %s, want %s", i, gotSorted[i], want[i])
		}
	}

	if rep.Trace == nil {
		t.Fatal("no trace")
	}
	var failedOnChaos, okOnChaos, okElsewhere int
	completedOnChaos := map[int]bool{}
	for _, sp := range rep.Trace.Spans {
		switch {
		case sp.Platform == "chaos" && sp.Failed():
			failedOnChaos++
			// Every attempt of a failed span carries its error.
			if len(sp.Attempts) == 0 {
				t.Errorf("failed span %d has no attempt records", sp.ID)
			}
			for _, a := range sp.Attempts {
				if a.Err == "" {
					t.Errorf("failed span %d attempt %d has no error", sp.ID, a.Number)
				}
			}
		case sp.Platform == "chaos":
			okOnChaos++
			if sp.Atom != nil {
				for _, op := range sp.Atom.Ops {
					completedOnChaos[op.ID] = true
				}
			}
		case !sp.Failed():
			okElsewhere++
		}
	}
	if failedOnChaos == 0 {
		t.Error("trace has no failed spans on the dying platform")
	}
	if okElsewhere == 0 {
		t.Error("trace has no successful re-planned spans on surviving platforms")
	}
	// The final assignment keeps chaos only for work that finished
	// there before the failover.
	for opID, pl := range rep.Plan.Assignment {
		if pl == "chaos" && !completedOnChaos[opID] {
			t.Errorf("re-planned op %d still assigned to the dead platform", opID)
		}
	}
	if rep.PlatformHealth["chaos"] != engine.BreakerOpen {
		t.Errorf("chaos breaker state = %v, want open", rep.PlatformHealth["chaos"])
	}
	// The telemetry snapshot agrees with the report, and with the trace
	// on how many spans failed on the dead platform.
	if v, _ := rep.Telemetry.Counter("rheem_failovers_total", nil); int(v) != rep.Failovers {
		t.Errorf("rheem_failovers_total = %v, report says %d", v, rep.Failovers)
	}
	if v, _ := rep.Telemetry.Counter("rheem_breaker_trips_total", map[string]string{"platform": "chaos"}); v < 1 {
		t.Errorf("rheem_breaker_trips_total{chaos} = %v, want at least one trip", v)
	}
	// A failed span is an error, or cancelled when a sibling's failure
	// stopped it first.
	errs, _ := rep.Telemetry.Counter("rheem_atoms_total", map[string]string{"platform": "chaos", "status": "error"})
	cancelled, _ := rep.Telemetry.Counter("rheem_atoms_total", map[string]string{"platform": "chaos", "status": "cancelled"})
	if errs < 1 || int(errs+cancelled) != failedOnChaos {
		t.Errorf("rheem_atoms_total{chaos} reads %v error and %v cancelled, the trace has %d failed spans there", errs, cancelled, failedOnChaos)
	}
}

func mustCollect(t *testing.T, q *rheem.DataQuanta, opts ...rheem.RunOption) []data.Record {
	t.Helper()
	recs, _, err := q.Collect(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFlightRecorderEndToEnd wires a recorder through the public API:
// Execute records a profile keyed by Report.RunID, the critical path
// respects the wall-clock invariant, and the monitoring server serves
// the profile and its Perfetto export over HTTP.
func TestFlightRecorderEndToEnd(t *testing.T) {
	rec := profile.NewRecorder(4, nil)
	ctx, err := rheem.NewContext(rheem.Config{}, rheem.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	// The Repeat loop forces atom boundaries (loops are their own
	// atoms), so downstream consumers take external inputs and the
	// recorder sees their channel-format choices.
	words := datagen.Words(500, 2)
	_, rep, err := ctx.NewJob("recorded").ReadCollection("words", words).
		Map(func(r data.Record) (data.Record, error) {
			return r.Append(data.Int(1)), nil
		}).
		Repeat(2, func(_ *rheem.LoopBody, q *rheem.DataQuanta) *rheem.DataQuanta {
			return q.Map(func(r data.Record) (data.Record, error) { return r, nil })
		}).
		ReduceByKey(plan.FieldKey(0), plan.SumField(1)).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID == 0 {
		t.Fatal("report has no run ID")
	}
	r, ok := rec.Get(rep.RunID)
	if !ok {
		t.Fatalf("no record for run %d", rep.RunID)
	}
	p := r.Profile
	if p.Atoms == 0 || p.Spans != len(r.Spans) {
		t.Errorf("profile shape: %+v", p)
	}
	if p.CriticalPathNS <= 0 || p.CriticalPathNS > p.WallNS {
		t.Errorf("critical path %dns vs wall %dns violates the invariant", p.CriticalPathNS, p.WallNS)
	}
	if len(p.CriticalPath) == 0 || len(p.TopAtoms) == 0 {
		t.Errorf("profile missing path/top atoms: %+v", p)
	}
	if p.Total.ComputeNS <= 0 {
		t.Errorf("attribution has no compute time: %+v", p.Total)
	}
	if len(p.Formats) == 0 {
		t.Error("profile recorded no consumer formats")
	}

	// A second run must get its own record, and both served over HTTP.
	_, rep2, err := ctx.NewJob("recorded-2").ReadCollection("words", words).
		Map(func(r data.Record) (data.Record, error) { return r, nil }).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RunID == rep.RunID {
		t.Error("second run reused the run ID")
	}
	addr, err := ctx.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	for _, path := range []string{
		fmt.Sprintf("/runs/%d/profile", rep.RunID),
		fmt.Sprintf("/runs/%d/trace.json", rep.RunID),
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		var parsed map[string]any
		if err := json.Unmarshal(body, &parsed); err != nil {
			t.Errorf("GET %s not JSON: %v", path, err)
		}
		if strings.HasSuffix(path, "trace.json") {
			evs, _ := parsed["traceEvents"].([]any)
			if len(evs) == 0 {
				t.Errorf("trace.json has no events: %s", body)
			}
		}
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/runs/%d/profile", addr, rep.RunID+999))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run = %d, want 404", resp.StatusCode)
	}
}

// TestFailedRunReachesRecorderAndCalibrator pins Execute's error path:
// a finished run hands the flight recorder and the calibrator the trace
// the executor took, but a run that fails mid-plan returns a result
// without one, and what its completed atoms measured must still reach
// both — the spans come from the tracer then.
func TestFailedRunReachesRecorderAndCalibrator(t *testing.T) {
	rec := profile.NewRecorder(4, nil)
	cal := cost.NewCalibrator(cost.CalibratorConfig{})
	ctx, err := rheem.NewContext(rheem.Config{}, rheem.WithFlightRecorder(rec), rheem.WithCalibration(cal))
	if err != nil {
		t.Fatal(err)
	}
	// Java's coverage, surviving one execution: the atom before the loop
	// runs, the loop body's first atom fails for good — a fatal error is
	// neither retried nor failed over.
	p := fault.Wrap(javaengine.New(), fault.Options{
		ID:        "chaos",
		Schedules: []fault.Schedule{fault.FailAfterN(1, engine.Fatal(errors.New("injected")))},
	})
	if err := fault.Register(ctx.Registry(), p, javaengine.ID); err != nil {
		t.Fatal(err)
	}
	_, rep, err := ctx.NewJob("fails-mid-plan").ReadCollection("words", datagen.Words(200, 2)).
		Map(func(r data.Record) (data.Record, error) { return r.Append(data.Int(1)), nil }).
		Repeat(2, func(_ *rheem.LoopBody, q *rheem.DataQuanta) *rheem.DataQuanta {
			return q.Map(func(r data.Record) (data.Record, error) { return r, nil })
		}).
		Collect(rheem.OnPlatform("chaos"))
	if err == nil {
		t.Fatal("the run survived a platform that fails from its second execution")
	}
	if rep == nil || rep.RunID == 0 {
		t.Fatalf("failed run's report = %+v, want its run ID", rep)
	}
	r, ok := rec.Get(rep.RunID)
	if !ok {
		t.Fatalf("the failed run %d is not in the flight recorder", rep.RunID)
	}
	var completed, failed int
	for _, sp := range r.Spans {
		switch {
		case sp.Failed():
			failed++
		case sp.Kind == trace.KindAtom:
			completed++
		}
	}
	if completed != 1 || failed == 0 {
		t.Errorf("recorded %d completed atom spans and %d failed spans, want 1 and some: %+v", completed, failed, r.Spans)
	}
	if r.Profile.Err == "" || r.Profile.Atoms == 0 {
		t.Errorf("failed run's profile = %+v", r.Profile)
	}
	if n := cal.Folds(); n != 1 {
		t.Errorf("calibrator folded %d runs, want the failed run's completed atom", n)
	}
}

// TestPlatformHealthCarriesOnlyOpenBreakers pins Report.PlatformHealth:
// the breakers that are not Closed, nil when none is. Every platform
// reads right through the zero value — absent is Closed — and after
// injected failures the dead platform reads Open.
func TestPlatformHealthCarriesOnlyOpenBreakers(t *testing.T) {
	ctx := newCtx(t)
	p := fault.Wrap(javaengine.New(), fault.Options{
		ID:        "chaos",
		Schedules: []fault.Schedule{fault.FailAfterN(0, nil)},
	})
	if err := fault.Register(ctx.Registry(), p, javaengine.ID); err != nil {
		t.Fatal(err)
	}
	job := func(name string) *rheem.DataQuanta {
		return ctx.NewJob(name).ReadCollection("words", datagen.Words(200, 2)).
			Map(func(r data.Record) (data.Record, error) { return r.Append(data.Int(1)), nil })
	}
	_, rep, err := job("healthy").Collect(rheem.OnPlatform(javaengine.ID))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlatformHealth != nil {
		t.Errorf("healthy run's PlatformHealth = %v, want nil", rep.PlatformHealth)
	}
	for _, id := range ctx.Registry().PlatformIDs() {
		if st := rep.PlatformHealth[id]; st != engine.BreakerClosed {
			t.Errorf("healthy run reads %s as %v", id, st)
		}
	}

	_, rep, err = job("failover").Collect(rheem.OnPlatform("chaos"))
	if err != nil {
		t.Fatalf("the run failed despite failover: %v", err)
	}
	if len(rep.PlatformHealth) != 1 || rep.PlatformHealth["chaos"] != engine.BreakerOpen {
		t.Errorf("PlatformHealth after injected failures = %v, want chaos open and nothing else", rep.PlatformHealth)
	}
	for _, id := range ctx.Registry().PlatformIDs() {
		if st := rep.PlatformHealth[id]; id != "chaos" && st != engine.BreakerClosed {
			t.Errorf("%s reads %v after chaos failed", id, st)
		}
	}
}

// TestPanickingOperatorFailsTheJobNotTheProcess is ROADMAP item 4's
// process-killer: an operator that indexes past its record — as a hinted
// FilterWhere, which on the single-node engine is a lazy stage that
// panics in whatever forces it, and as the UDF twin — must fail its job
// with a Fatal error naming an operator, on every platform, without a
// retry, a failover or a breaker transition, and leave the context able
// to run the next job.
func TestPanickingOperatorFailsTheJobNotTheProcess(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Int(1), data.Int(10)),
		data.NewRecord(data.Int(2), data.Int(20)),
	}
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	build := func(field int, hinted bool) *plan.Plan {
		b := plan.NewBuilder("panics")
		src := b.Source("rows", plan.Collection(recs))
		if hinted {
			b.Collect(b.FilterWhere(src, field, plan.Less, data.Int(5)))
		} else {
			b.Collect(b.Filter(src, (&plan.ColumnPredicate{Field: field, Op: plan.Less, Operand: data.Int(5)}).FilterFunc()))
		}
		return b.MustBuild()
	}
	for _, id := range []engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID} {
		for _, hinted := range []bool{true, false} {
			trips, _ := ctx.Registry().Health().Transitions(id)
			var failed []trace.Span
			retries := 0
			_, _, err := ctx.Execute(build(99, hinted), rheem.OnPlatform(id), rheem.WithMonitor(func(e trace.Event) {
				switch {
				case e.Kind == trace.SpanRetry:
					retries++
				case e.Kind == trace.SpanEnd && e.Span.Failed():
					failed = append(failed, *e.Span)
				}
			}))
			switch {
			case err == nil:
				t.Fatalf("%s hinted=%v: a filter on field 99 of two-field rows succeeded", id, hinted)
			case !engine.IsFatal(err):
				t.Errorf("%s hinted=%v: %v is not Fatal", id, hinted, err)
			}
			for _, want := range []string{"engine: atom#", " panicked: runtime error: index out of range [99] with length 2", "goroutine "} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s hinted=%v: error does not mention %q:\n%v", id, hinted, want, err)
				}
			}
			// The operator named is the filter itself wherever it runs
			// eagerly — every case but the lazy stage on the java engine.
			if eager := !hinted || id != javaengine.ID; eager && !strings.Contains(err.Error(), ": Filter#") {
				t.Errorf("%s hinted=%v: error does not name the filter:\n%v", id, hinted, err)
			}
			// The span stream saw one failed atom, one attempt, fatal, and
			// no retry; the breaker did not trip.
			if len(failed) != 1 || len(failed[0].Attempts) != 1 || !failed[0].Attempts[0].Fatal ||
				failed[0].Retries != 0 || retries != 0 {
				t.Errorf("%s hinted=%v: failed spans %+v and %d retries, want one span with one fatal attempt", id, hinted, failed, retries)
			}
			if after, _ := ctx.Registry().Health().Transitions(id); after != trips {
				t.Errorf("%s hinted=%v: breaker trips went %d → %d after a fatal error", id, hinted, trips, after)
			}
			if st := ctx.Registry().Health().State(id); st != engine.BreakerClosed {
				t.Errorf("%s hinted=%v: breaker is %v after a fatal error", id, hinted, st)
			}
			out, _, err := ctx.Execute(build(0, hinted), rheem.OnPlatform(id))
			if err != nil || len(out) != 2 {
				t.Errorf("%s hinted=%v: the next job returned %v, %v", id, hinted, out, err)
			}
		}
	}
}

// TestHintedChainAllocationGate is ROADMAP item 2's allocation gate,
// enforced where `go test ./...` runs it: a hinted FilterWhere →
// ProjectCols → AggregateCols plan executed through the public API on
// the default Config, pinned to the single-node engine — source and
// chain in one atom — may allocate one object per thousand input rows
// and one byte per input row plus a fixed per-job allowance, and no
// more. One allocation per row means something row-shaped is back on
// the columnar path; sixteen bytes per row, that an operator again
// hands the next a full-length copy instead of a window.
func TestHintedChainAllocationGate(t *testing.T) {
	const (
		rows = 100_000
		jobs = 5
		// perJob covers what a job costs whatever its input: building and
		// optimizing the plan, the atom's spans and channels — not the
		// pipeline's window-sized buffers, which are leased: a forcing
		// that allocates its window scratch again reads 60 KB. Measured
		// at 51 objects and 5.0 KB at GOMAXPROCS 1 to 4, 20 readings (63–64
		// objects and 5.2–5.3 KB while a run's telemetry was a tracer, a
		// closure and a consumer slice apart from the run, and its trace
		// was copied on the way out; 6.3–7.4 KB
		// while every operator carried every kind's fields in 320 bytes,
		// 76–77 and 6.8–6.9 KB while every logical edge was a slice of its own and
		// a Run allocated its state, 81 and 8.5 KB while the
		// optimizer's DP cells were 88 bytes and its scratch was made per
		// call, 91 and 10.0 KB while the execution plan kept its
		// per-operator state in Go maps, 124 and 10.6 KB while the
		// control plane allocated per operator). Scratches sit on a free list, not
		// in a sync.Pool, so neither a collection nor a race build's
		// dropped Puts make a forcing allocate them again. The headroom is
		// for toolchain drift, not for per-row work, which at this input
		// size would overshoot it many times.
		perJob      = 200
		perJobBytes = 32 << 10
	)
	recs := make([]data.Record, rows)
	var want int64
	for i := range recs {
		v := int64(i*7919) % 1000
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Int(v))
		if v < 500 {
			want += v
		}
	}
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	job := func() {
		b := plan.NewBuilder("alloc-gate")
		s := b.Source("rows", plan.Collection(recs))
		s.CardHint = rows
		f := b.FilterWhere(s, 1, plan.Less, data.Int(500))
		b.Collect(b.AggregateCols(b.ProjectCols(f, 1), plan.AggSum))
		out, _, err := ctx.Execute(b.MustBuild(), rheem.OnPlatform(javaengine.ID))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Field(0).Int() != want {
			t.Fatalf("hinted chain produced %v, want sum %d", out, want)
		}
	}
	job() // warm-up: pools, lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / jobs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("%.0f allocations, %.0f bytes per job over %d rows", objects, bytes, rows)
	if limit := float64(rows/1000 + perJob); objects > limit {
		t.Errorf("hinted chain made %.0f allocations per job over %d rows, gate is %.0f (rows/1000 + %d)", objects, rows, limit, perJob)
	}
	if limit := float64(rows + perJobBytes); bytes > limit {
		t.Errorf("hinted chain allocated %.0f bytes per job over %d rows, gate is %.0f (1 per row + %d)", bytes, rows, limit, perJobBytes)
	}
}

// TestRowPathAllocationGate is the row path's counterpart: opaque UDFs,
// so nothing columnar can engage. A UDF Map into a ReduceByKey over 32
// keys, each UDF returning a fresh five-value record, must cost what the
// UDFs themselves allocate — two five-value field slices per row, 80
// bytes each in their size class — plus one 16-byte record header per
// row for the Map's output slice. A fatter data.Value or data.Record
// (three words put each slice in the 128-byte class and the header at
// 24 bytes), or a keyed reduce that materialises its groups before
// folding them, shows up here as bytes per row.
func TestRowPathAllocationGate(t *testing.T) {
	const (
		rows = 100_000
		keys = 32
		jobs = 5
		// Measured at 176, exactly the floor of 2×80 + 16, at GOMAXPROCS
		// 1 to 4 with edges inline and the run state leased; three-word
		// quanta read 280 (2×128 + 24), and a 64-byte Value with a
		// group-then-fold reduce 754.
		bytesPerRow = 200
	)
	recs := make([]data.Record, rows)
	var want [keys]float64
	for i := range recs {
		k, x := int64(i%keys), float64(i%1000)/8
		recs[i] = data.NewRecord(data.Int(k), data.Int(int64(i)), data.Float(x), data.Float(2*x), data.Float(3*x))
		want[k] += x + 1
	}
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	job := func() {
		b := plan.NewBuilder("row-alloc-gate")
		s := b.Source("rows", plan.Collection(recs))
		s.CardHint = rows
		m := b.Map(s, func(r data.Record) (data.Record, error) {
			return data.NewRecord(r.Field(0), data.Float(r.Field(2).Float()+1), r.Field(3), r.Field(4), data.Int(1)), nil
		})
		b.Collect(b.ReduceByKey(m, plan.FieldKey(0), func(a, b data.Record) (data.Record, error) {
			return data.NewRecord(a.Field(0),
				data.Float(a.Field(1).Float()+b.Field(1).Float()),
				data.Float(a.Field(2).Float()+b.Field(2).Float()),
				data.Float(a.Field(3).Float()+b.Field(3).Float()),
				data.Int(a.Field(4).Int()+b.Field(4).Int())), nil
		}))
		out, _, err := ctx.Execute(b.MustBuild(), rheem.OnPlatform(javaengine.ID))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != keys {
			t.Fatalf("%d keys out, want %d", len(out), keys)
		}
		for _, r := range out {
			if k := r.Field(0).Int(); r.Field(1).Float() != want[k] || r.Field(4).Int() != rows/keys {
				t.Fatalf("key %d folded to %s, want sum %g over %d rows", k, r, want[k], rows/keys)
			}
		}
	}
	job() // warm-up: pools, lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (jobs * rows)
	t.Logf("%.0f bytes allocated per input row", got)
	if got > bytesPerRow {
		t.Errorf("UDF map → reduce-by-key allocated %.0f bytes per input row, gate is %d", got, bytesPerRow)
	}
}
