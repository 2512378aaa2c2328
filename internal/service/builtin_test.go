package service

import (
	"sync"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/engine"
	"rheem/internal/core/plan"
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

// sourceBatch is the batch a built-in plan's source reads.
func sourceBatch(tb testing.TB, p *plan.Plan) *batch.Batch {
	tb.Helper()
	for _, op := range p.Operators() {
		if op.ColSource() != nil {
			return op.ColSource()
		}
	}
	tb.Fatalf("plan %s has no columnar source", p.Name())
	return nil
}

// TestBuiltinInputSharedAcrossJobs: two jobs of one spec running at once
// read the one batch its input was generated into, and answer the pinned
// digest; and first uses of one key racing on an empty memo get one input.
func TestBuiltinInputSharedAcrossJobs(t *testing.T) {
	svc := benchService(t)
	g := builtinGolden[3]
	var wg sync.WaitGroup
	plans, digests := make([]*plan.Plan, 2), make([]string, 2)
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := g.spec.BuildPlan(g.spec.Workload, nil)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
			recs, _, err := svc.Engine().Execute(p)
			if err != nil {
				t.Error(err)
				return
			}
			digests[i], err = Digest(recs)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if sourceBatch(t, plans[0]) != sourceBatch(t, plans[1]) {
		t.Errorf("two jobs of %+v read two inputs", g.spec)
	}
	for _, d := range digests {
		if d != g.digest {
			t.Errorf("%+v: digest %s, pinned %s", g.spec, d, g.digest)
		}
	}

	var m inputMemo
	key := inputKey{WorkloadSensor, 4000, 32, 99}
	got := make([]*batch.Batch, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.get(key)
		}()
	}
	wg.Wait()
	for _, b := range got[1:] {
		if b != got[0] {
			t.Fatal("first uses of one key got two inputs")
		}
	}
}

// TestBuiltinInputsEvictLeastRecentlyUsed: the memo holds at most
// MaxWorkloadN rows, and makes room by dropping what was used longest ago.
func TestBuiltinInputsEvictLeastRecentlyUsed(t *testing.T) {
	var m inputMemo
	half := func(seed uint64) inputKey { return inputKey{WorkloadFanout, MaxWorkloadN / 2, 0, seed} }
	one, two := m.get(half(1)), m.get(half(2))
	if m.rows != MaxWorkloadN || m.get(half(1)) != one || m.get(half(2)) != two {
		t.Fatalf("two inputs of half the bound each are not both kept (%d rows)", m.rows)
	}
	m.get(half(1)) // two is now the least recently used
	m.get(half(3))
	if m.rows != MaxWorkloadN || m.lru.Len() != 2 {
		t.Fatalf("after a third input: %d inputs of %d rows, want 2 of %d", m.lru.Len(), m.rows, MaxWorkloadN)
	}
	if m.get(half(1)) != one {
		t.Error("the recently used input was evicted")
	}
	if m.get(half(2)) == two {
		t.Error("the least recently used input was kept")
	}
	if cols := m.get(inputKey{WorkloadFanout, MaxWorkloadN + 1, 0, 1}); cols.Len() != MaxWorkloadN+1 || m.rows != MaxWorkloadN {
		t.Errorf("an input past the bound: %d rows made, %d kept", cols.Len(), m.rows)
	}
}
