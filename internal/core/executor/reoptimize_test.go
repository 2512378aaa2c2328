package executor

import (
	"bytes"
	"testing"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// defaultRegistry registers the platforms with their production
// calibration (50 ms spark job overhead) — the regime where a
// 100-record loop belongs on the single-node engine.
func defaultRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// lyingSourcePlan claims two million records but produces 100, with an
// iterative loop downstream. The initial optimizer believes the hint
// and puts the loop on the cluster; the audit exposes the lie at the
// first atom boundary.
func lyingSourcePlan(t *testing.T) *physical.Plan {
	t.Helper()
	bb := plan.NewBodyBuilder("body")
	li := bb.LoopInput("st")
	m := bb.Map(li, func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
	})
	bb.Collect(m)
	body := bb.MustBuild()

	b := plan.NewBuilder("lying")
	s := b.Source("liar", plan.Collection(intRecords(100)))
	s.CardHint = 2_000_000
	rep := b.Repeat(s, 20, body)
	b.Collect(rep)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func bodyPlatforms(ep *optimizer.ExecutionPlan) map[string]bool {
	out := map[string]bool{}
	for _, bodyEP := range ep.LoopBodies {
		for _, op := range bodyEP.Physical.Ops {
			out[string(bodyEP.Assignment[op.ID])] = true
		}
	}
	return out
}

func TestAdaptiveReoptimizationMovesLoopOffCluster(t *testing.T) {
	reg := defaultRegistry(t)
	ep, err := optimizer.Optimize(lyingSourcePlan(t), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the lie pushes the initial loop body onto spark.
	if pls := bodyPlatforms(ep); !pls[string(sparksim.ID)] {
		t.Skipf("initial plan not on spark (%v); calibration moved the threshold", pls)
	}

	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reoptimized {
		t.Fatal("audit did not trigger re-optimization")
	}
	if len(res.Records) != 100 || res.Records[0].Field(0).Int() != 20 {
		t.Errorf("wrong results after re-optimization: %d records", len(res.Records))
	}
	// The re-planned loop body must have moved to the single-node
	// engine now that the input is known to be tiny.
	if pls := bodyPlatforms(res.FinalPlan); !pls[string(javaengine.ID)] || pls[string(sparksim.ID)] {
		t.Errorf("re-optimized body platforms = %v, want java only", pls)
	}
}

// TestReplanOnlyWhileAtomsRemain pins the adaptive rule: a flagged
// audit re-plans the atoms that have not started, so a flag on the
// plan's last atom is audit evidence only — and the same lie one atom
// earlier does re-plan, with no option set.
func TestReplanOnlyWhileAtomsRemain(t *testing.T) {
	reg := defaultRegistry(t)
	lying := func() (pp *physical.Plan, srcID, mapID int) {
		b := plan.NewBuilder("lying-chain")
		s := b.Source("liar", plan.Collection(intRecords(100)))
		s.CardHint = 2_000_000
		b.Collect(b.Map(s, func(r data.Record) (data.Record, error) { return r, nil }))
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range pp.Ops {
			switch op.Kind() {
			case plan.KindSource:
				srcID = op.ID
			case plan.KindMap:
				mapID = op.ID
			}
		}
		return pp, srcID, mapID
	}

	pp, _, _ := lying()
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Atoms) != 1 {
		t.Fatalf("pinned chain split into %d atoms, want 1", len(ep.Atoms))
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reoptimized || res.FinalPlan != ep {
		t.Error("a flag on the plan's last atom re-planned it")
	}
	if len(res.Mismatches) == 0 {
		t.Error("audit should still flag the lying source")
	}
	if len(res.Records) != 100 {
		t.Errorf("%d records", len(res.Records))
	}

	// The map pinned off the source's platform: the source's atom flags
	// while the map's has yet to start.
	pp, srcID, mapID := lying()
	ep, err = optimizer.Optimize(pp, reg, optimizer.Options{
		ForcedAssignments: map[int]engine.PlatformID{srcID: javaengine.ID, mapID: sparksim.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Atoms) < 2 {
		t.Fatalf("split chain has %d atoms, want the source's and the map's", len(ep.Atoms))
	}
	res, err = Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reoptimized {
		t.Error("a flag with atoms still to start did not re-plan")
	}
	if pl := res.FinalPlan.Assignment[mapID]; pl != sparksim.ID {
		t.Errorf("re-plan moved the pinned map to %s", pl)
	}
	if len(res.Records) != 100 {
		t.Errorf("%d records after the re-plan", len(res.Records))
	}
}

// TestReoptimizationCheaperThanStubborn: the stubborn arm is the job
// pinned to the platform the stale plan gave its loop — a re-plan keeps
// the pin, so it cannot migrate — and re-planning the free job pays.
func TestReoptimizationCheaperThanStubborn(t *testing.T) {
	reg := defaultRegistry(t)
	run := func(opts optimizer.Options) *Result {
		ep, err := optimizer.Optimize(lyingSourcePlan(t), reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(ep, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stubborn := run(optimizer.Options{FixedPlatform: sparksim.ID})
	adaptive := run(optimizer.Options{})
	if pls := bodyPlatforms(stubborn.FinalPlan); pls[string(javaengine.ID)] {
		t.Errorf("the pinned job migrated: body platforms %v", pls)
	}
	if !adaptive.Reoptimized {
		t.Error("the free job did not re-plan")
	}
	if adaptive.Metrics.Sim >= stubborn.Metrics.Sim {
		t.Errorf("re-optimization did not pay off: adaptive %v vs stubborn %v", adaptive.Metrics.Sim, stubborn.Metrics.Sim)
	}
}

// TestReplanKeepsForcedAssignments: a re-plan starts from the options
// the plan was made with, so an operator the caller pinned stays put —
// where the observed cardinalities alone would move it — and the
// caller's map is left as it was.
func TestReplanKeepsForcedAssignments(t *testing.T) {
	reg := defaultRegistry(t)
	pp := lyingSourcePlan(t)
	bodyMap := -1
	for _, op := range pp.Ops {
		if op.Body != nil {
			for _, bop := range op.Body.Ops {
				if bop.Kind() == plan.KindMap {
					bodyMap = bop.ID
				}
			}
		}
	}
	pins := map[int]engine.PlatformID{bodyMap: sparksim.ID}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{ForcedAssignments: pins})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reoptimized {
		t.Fatal("audit did not trigger re-optimization")
	}
	if len(res.Records) != 100 || res.Records[0].Field(0).Int() != 20 {
		t.Errorf("wrong results after re-optimization: %d records", len(res.Records))
	}
	final := res.FinalPlan
	for _, body := range final.LoopBodies {
		if pl := body.Assignment[bodyMap]; pl != sparksim.ID {
			t.Errorf("re-plan moved the pinned body map to %s", pl)
		}
	}
	if pl := final.Options.ForcedAssignments[bodyMap]; pl != sparksim.ID {
		t.Errorf("re-plan dropped the caller's pin: %v", final.Options.ForcedAssignments)
	}
	if len(pins) != 1 {
		t.Errorf("the re-plan wrote into the caller's pins: %v", pins)
	}
}

// lyingDiamondPlan is a two-branch diamond whose first source lies
// about its cardinality by 10,000x. With the sources, union and sink
// pinned to the relational engine and the branch maps to java and
// spark, the plan schedules several atoms concurrently; the honest
// branch carries per-record sleeps so it is still in flight when the
// liar's audit mismatch lands.
func lyingDiamondPlan(t *testing.T) (*physical.Plan, map[int]engine.PlatformID) {
	t.Helper()
	b := plan.NewBuilder("lying-diamond")
	liar := b.Source("liar", plan.Collection(intRecords(60)))
	liar.CardHint = 600_000
	honest := b.Source("honest", plan.Collection(intRecords(20)))
	honest.CardHint = 20
	ml := b.Map(liar, func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int() * 2)), nil
	})
	mh := b.Map(honest, func(r data.Record) (data.Record, error) {
		time.Sleep(time.Millisecond)
		return data.NewRecord(data.Int(r.Field(0).Int()*2 + 1)), nil
	})
	b.Collect(b.Union(ml, mh))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	fa := map[int]engine.PlatformID{}
	mapsSeen := 0
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindMap {
			if mapsSeen == 0 {
				fa[op.ID] = javaengine.ID // liar's branch (built first)
			} else {
				fa[op.ID] = sparksim.ID
			}
			mapsSeen++
		} else {
			fa[op.ID] = relengine.ID
		}
	}
	return pp, fa
}

// TestReoptimizeOncePerRunUnderParallelism triggers a mid-wave audit
// mismatch at every parallelism degree and demands deterministic
// adaptive behavior: exactly one re-plan per run (after quiescing the
// in-flight atoms) and records byte-identical to the sequential run.
func TestReoptimizeOncePerRunUnderParallelism(t *testing.T) {
	reg := triRegistry(t)
	var baseline []byte
	for _, par := range []int{1, 2, 8} {
		pp, fa := lyingDiamondPlan(t)
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{
			DisableRules:      true,
			ForcedAssignments: fa,
		})
		if err != nil {
			t.Fatal(err)
		}
		replans := 0
		res, err := Run(ep, reg, Options{Parallelism: par, Tracer: trace.New(func(e trace.Event) {
			if e.Kind == trace.Replan {
				replans++
			}
		})})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !res.Reoptimized {
			t.Fatalf("parallelism %d: lying source did not trigger re-optimization", par)
		}
		if replans != 1 {
			t.Errorf("parallelism %d: %d re-plans, want exactly 1", par, replans)
		}
		if res.FinalPlan == ep {
			t.Errorf("parallelism %d: FinalPlan still the original plan", par)
		}
		got := recordBytes(t, res.Records)
		if baseline == nil {
			baseline = got
			continue
		}
		if !bytes.Equal(baseline, got) {
			t.Errorf("parallelism %d: records differ from the sequential run", par)
		}
	}
}

func TestReoptimizationAccurateEstimatesNoop(t *testing.T) {
	reg := fullRegistry(t)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(50)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reoptimized {
		t.Error("accurate plan re-optimized")
	}
}
