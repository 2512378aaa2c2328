package cleaning

import (
	"testing"

	"rheem"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

func testCtx(t *testing.T) *rheem.Context {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{
		Spark: sparksim.Config{JobOverhead: 1e5, TaskOverhead: 1e4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// zipCityFD is the canonical tax rule: zip determines city.
func zipCityFD() FD {
	return FD{RuleName: "zip->city", ID: datagen.TaxID,
		LHS: []int{datagen.TaxZip}, RHS: []int{datagen.TaxCity}}
}

// salaryRateDC is the canonical inequality rule: higher salary must not
// have a lower rate.
func salaryRateDC() DenialConstraint {
	return DenialConstraint{RuleName: "salary-rate", ID: datagen.TaxID,
		Preds: []Pred{
			{LeftField: datagen.TaxSalary, Op: plan.Greater, RightField: datagen.TaxSalary},
			{LeftField: datagen.TaxRate, Op: plan.Less, RightField: datagen.TaxRate},
		},
		FixField: datagen.TaxRate,
	}
}

// oracleFD detects zip→city violations by brute force.
func oracleFD(recs []data.Record) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			a, b := recs[i], recs[j]
			if a.Field(datagen.TaxZip).Str() == b.Field(datagen.TaxZip).Str() &&
				a.Field(datagen.TaxCity).Str() != b.Field(datagen.TaxCity).Str() {
				l, r := a.Field(datagen.TaxID).Int(), b.Field(datagen.TaxID).Int()
				if l > r {
					l, r = r, l
				}
				out[[2]int64{l, r}] = true
			}
		}
	}
	return out
}

func violationSet(vs []Violation) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for _, v := range vs {
		l, r := v.Left, v.Right
		if l > r {
			l, r = r, l
		}
		out[[2]int64{l, r}] = true
	}
	return out
}

func TestFDDetectionMatchesOracle(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 300, Zips: 20, ErrorRate: 0.1, Seed: 1})
	ctx := testCtx(t)
	d, err := NewDetector(ctx, zipCityFD())
	if err != nil {
		t.Fatal(err)
	}
	vs, rep, err := d.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleFD(recs)
	got := violationSet(vs)
	if len(want) == 0 {
		t.Fatal("oracle found no violations; bad fixture")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d violations, oracle %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing violation %v", k)
		}
	}
	if rep.Metrics.Jobs < 1 {
		t.Error("no jobs recorded")
	}
}

func TestFDDetectionSameAcrossPlatforms(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 200, Zips: 15, ErrorRate: 0.1, Seed: 2})
	ctx := testCtx(t)
	d, _ := NewDetector(ctx, zipCityFD())
	vj, _, err := d.Detect(recs, rheem.OnPlatform(javaengine.ID))
	if err != nil {
		t.Fatal(err)
	}
	vsSpark, _, err := d.Detect(recs, rheem.OnPlatform(sparksim.ID))
	if err != nil {
		t.Fatal(err)
	}
	a, b := violationSet(vj), violationSet(vsSpark)
	if len(a) != len(b) {
		t.Fatalf("java %d vs spark %d violations", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("violation %v missing on spark", k)
		}
	}
}

func TestDCDetectionViaIEJoinMatchesNestedLoop(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 150, Zips: 10, ErrorRate: 0.05, Seed: 3})
	ctx := testCtx(t)
	dc := salaryRateDC()

	dIE, _ := NewDetector(ctx, dc)
	vIE, _, err := dIE.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: same rule with conditions stripped → nested loop via
	// the blocked pipeline with a constant key.
	dNL, _ := NewDetector(ctx, StripConditions(dc))
	vNL, _, err := dNL.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := violationSet(vIE), violationSet(vNL)
	if len(a) == 0 {
		t.Fatal("no DC violations in fixture")
	}
	if len(a) != len(b) {
		t.Fatalf("IEJoin %d vs nested-loop %d violations", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("pair %v missing from nested loop", k)
		}
	}
}

// TestDetectReportNamesLastRun runs two rules, each its own job: the
// merged report's RunID, like its Plan and Trace, is the last rule's run,
// and the context's run tracker knows it by that ID.
func TestDetectReportNamesLastRun(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 100, Zips: 10, ErrorRate: 0.1, Seed: 5})
	ctx := testCtx(t)
	d, err := NewDetector(ctx, zipCityFD(), salaryRateDC())
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := d.Detect(recs, rheem.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID == 0 {
		t.Fatal("merged report has RunID 0")
	}
	const last = "detect-ie-salary-rate"
	named := ""
	statuses := ctx.Telemetry().Runs().Status()
	for _, st := range statuses {
		if st.ID == rep.RunID {
			named = st.Name
		}
	}
	if named != last || len(statuses) != 2 {
		t.Errorf("RunID %d names run %q among %d, want the last rule's %q among one per rule", rep.RunID, named, len(statuses), last)
	}
	if rep.Trace == nil || rep.Telemetry == nil {
		t.Error("traced Detect lost the last rule's trace or telemetry")
	}
}

func TestBaselinesAgreeWithPipeline(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 120, Zips: 10, ErrorRate: 0.15, Seed: 4})
	ctx := testCtx(t)
	fd := zipCityFD()
	d, _ := NewDetector(ctx, fd)

	pipeline, _, err := d.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	mono, _, err := d.DetectMonolithic(fd, recs)
	if err != nil {
		t.Fatal(err)
	}
	selfjoin, _, err := d.DetectSelfJoin(fd, recs)
	if err != nil {
		t.Fatal(err)
	}
	p, m, s := violationSet(pipeline), violationSet(mono), violationSet(selfjoin)
	if len(p) != len(m) || len(p) != len(s) {
		t.Fatalf("pipeline %d, monolithic %d, selfjoin %d violations", len(p), len(m), len(s))
	}
	for k := range p {
		if !m[k] || !s[k] {
			t.Fatalf("violation %v missing from a baseline", k)
		}
	}
}

func TestCleanDataNoViolations(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 200, Zips: 20, ErrorRate: 0, Seed: 5})
	ctx := testCtx(t)
	d, _ := NewDetector(ctx, zipCityFD(), salaryRateDC())
	vs, _, err := d.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("clean data produced %d violations", len(vs))
	}
}

func TestRepairRestoresFD(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 400, Zips: 10, ErrorRate: 0.08, Seed: 6})
	ctx := testCtx(t)
	fd := zipCityFD()
	d, _ := NewDetector(ctx, fd)
	vs, _, err := d.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("fixture has no violations")
	}
	repaired, stats, err := Repair(recs, vs, []Rule{fd}, datagen.TaxID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CellsChanged == 0 || stats.Classes == 0 {
		t.Errorf("repair did nothing: %+v", stats)
	}
	// The repaired dataset must satisfy the FD.
	vs2, _, err := d.Detect(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) != 0 {
		t.Errorf("%d violations remain after repair", len(vs2))
	}
	// Majority voting should settle every zip on its majority city in
	// the dirty data — which, at an 8% error rate, is the true city.
	majority := map[string]string{}
	counts := map[string]map[string]int{}
	for _, r := range recs {
		zip, city := r.Field(datagen.TaxZip).Str(), r.Field(datagen.TaxCity).Str()
		if counts[zip] == nil {
			counts[zip] = map[string]int{}
		}
		counts[zip][city]++
		if counts[zip][city] > counts[zip][majority[zip]] {
			majority[zip] = city
		}
	}
	correct, total := 0, 0
	for _, r := range repaired {
		total++
		if r.Field(datagen.TaxCity).Str() == majority[r.Field(datagen.TaxZip).Str()] {
			correct++
		}
	}
	if frac := float64(correct) / float64(total); frac < 0.99 {
		t.Errorf("repair left %.2f of cities off the majority value", 1-frac)
	}
}

func TestRepairGreedyForDC(t *testing.T) {
	recs := datagen.Tax(datagen.TaxConfig{N: 80, Zips: 5, ErrorRate: 0.05, Seed: 7})
	ctx := testCtx(t)
	dc := salaryRateDC()
	d, _ := NewDetector(ctx, dc)
	vs, _, err := d.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Skip("fixture has no DC violations at this seed")
	}
	repaired, stats, err := Repair(recs, vs, []Rule{dc}, datagen.TaxID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GreedyApplied == 0 {
		t.Errorf("no greedy fixes applied: %+v", stats)
	}
	vs2, _, err := d.Detect(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) >= len(vs) {
		t.Errorf("repair did not reduce DC violations: %d → %d", len(vs), len(vs2))
	}
}

func TestUDFRule(t *testing.T) {
	// A single-attribute sanity rule expressed as a UDF rule: two
	// records with the same name but different gender are suspicious.
	rule := UDFRule{
		RuleName: "name-gender",
		ScopeFn: func(r data.Record) (data.Record, bool) {
			return r.Project(datagen.TaxID, datagen.TaxFName, datagen.TaxGender), true
		},
		BlockFn:  func(r data.Record) data.Value { return r.Field(1) },
		DetectFn: func(a, b data.Record) bool { return !data.Equal(a.Field(2), b.Field(2)) },
	}
	recs := datagen.Tax(datagen.TaxConfig{N: 100, Zips: 10, ErrorRate: 0, Seed: 8})
	ctx := testCtx(t)
	d, _ := NewDetector(ctx, rule)
	vs, _, err := d.Detect(recs)
	if err != nil {
		t.Fatal(err)
	}
	// The generator draws gender independent of name, so some
	// same-name different-gender pairs must exist.
	if len(vs) == 0 {
		t.Error("UDF rule found nothing")
	}
}

func TestValidate(t *testing.T) {
	n := datagen.TaxSchema.Len()
	if err := Validate(zipCityFD(), n); err != nil {
		t.Errorf("valid FD rejected: %v", err)
	}
	if err := Validate(FD{RuleName: "bad", ID: 0, LHS: []int{99}, RHS: []int{1}}, n); err == nil {
		t.Error("out-of-range FD accepted")
	}
	if err := Validate(FD{RuleName: "bad", ID: 0}, n); err == nil {
		t.Error("empty FD accepted")
	}
	if err := Validate(salaryRateDC(), n); err != nil {
		t.Errorf("valid DC rejected: %v", err)
	}
	if err := Validate(DenialConstraint{RuleName: "bad"}, n); err == nil {
		t.Error("predicate-less DC accepted")
	}
}

func TestHelpers(t *testing.T) {
	vs := []Violation{{Rule: "a", Left: 1, Right: 2}, {Rule: "a", Left: 3, Right: 4}, {Rule: "b", Left: 1, Right: -1}}
	counts := CountByRule(vs)
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Errorf("CountByRule = %v", counts)
	}
	tuples := ViolatingTuples(vs)
	if len(tuples) != 4 || tuples[-1] {
		t.Errorf("ViolatingTuples = %v", tuples)
	}
	if _, err := NewDetector(testCtx(t)); err == nil {
		t.Error("detector without rules accepted")
	}
}
