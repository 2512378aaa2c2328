package service

import (
	"testing"

	"rheem/internal/core/engine"
)

// builtinGolden pins the built-ins' result digests to what the row-UDF
// plans they were first written as produced, so that rewriting a plan onto
// another operator form cannot drift by a bit. The first three are the
// repository benchmark's service-http sizes, which the allocation gate and
// BenchmarkBuiltinJob run too.
var builtinGolden = []struct {
	spec   Spec
	digest string
}{
	{Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 4000, Seed: 3}, "7fafb10398ac7c91344364d134e2b3aa33eae060097a91f80d6738775f695e23"},
	{Spec{Kind: KindWorkload, Workload: WorkloadSensor, N: 4000, Seed: 3}, "b8e86237f762a356c780a1a4e3ee6dc78f2fef73b5c4f40d3b6ca25ef3e1d732"},
	{Spec{Kind: KindWorkload, Workload: WorkloadFanout, N: 200, Branches: 4, Seed: 3}, "9a180f868f2a82fb8fe9f2f82d6a0b8af67e054e69164fbd3f52efd41120e459"},
	{Spec{Kind: KindWorkload, Workload: WorkloadSensor, N: 400, Wells: 8, Seed: 12}, "2ebe49b5d60132991cb6e468c410039c07262fb1fbb640b3beaa641ad5a2408e"},
}

// benchService is a service configured like the repository benchmark's.
func benchService(tb testing.TB) *Service {
	tb.Helper()
	svc, err := New(Config{CatalogScale: 2000, Calibration: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	return svc
}

// runBuiltin is one built-in job past admission: build the plan, execute
// it under free platform choice, digest the result.
func runBuiltin(tb testing.TB, svc *Service, spec Spec) (string, []engine.PlatformID) {
	tb.Helper()
	p, err := spec.BuildPlan(spec.Workload, nil)
	if err != nil {
		tb.Fatal(err)
	}
	recs, rep, err := svc.Engine().Execute(p)
	if err != nil {
		tb.Fatalf("%+v: %v", spec, err)
	}
	digest, err := Digest(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return digest, planPlatforms(rep.Plan)
}

// TestBuiltinDigestsPinned also holds the plans where the columnar forms
// run as columns: a flip off javaengine hands the rows to the derived row
// UDFs, correct and thousands of allocations dearer.
func TestBuiltinDigestsPinned(t *testing.T) {
	svc := benchService(t)
	for _, g := range builtinGolden {
		digest, platforms := runBuiltin(t, svc, g.spec)
		if digest != g.digest {
			t.Errorf("%+v on %v: digest %s, pinned %s", g.spec, platforms, digest, g.digest)
		}
		if len(platforms) != 1 || platforms[0] != "java" {
			t.Errorf("%+v ran on %v, want java alone", g.spec, platforms)
		}
	}
}
