package executor

import (
	"bytes"
	"fmt"
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

// triRegistry registers all three bundled platforms — the concurrency
// tests need multi-platform plans, because same-platform fragments
// fuse into a single atom and leave nothing to schedule in parallel.
func triRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{JobOverhead: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := relengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// fanOutPlan builds a diamond: one source fanning out to `branches`
// independent map branches, folded back through a union chain into the
// sink. Each map is pure and deterministic (record i on branch b maps
// to i*branches+b), optionally sleeping per record to simulate work.
func fanOutPlan(t *testing.T, branches, recs int, delay time.Duration) *physical.Plan {
	t.Helper()
	b := plan.NewBuilder("fanout")
	s := b.Source("src", plan.Collection(intRecords(recs)))
	s.CardHint = int64(recs)
	var outs []*plan.Operator
	for i := 0; i < branches; i++ {
		off := int64(i)
		outs = append(outs, b.Map(s, func(r data.Record) (data.Record, error) {
			if delay > 0 {
				time.Sleep(delay)
			}
			return data.NewRecord(data.Int(r.Field(0).Int()*int64(branches) + off)), nil
		}))
	}
	u := outs[0]
	for _, o := range outs[1:] {
		u = b.Union(u, o)
	}
	b.Collect(u)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// fanOutAssignments pins the diamond so it cannot collapse into one
// atom: source, unions and sink on the relational engine, the map
// branches alternating between java and spark. The resulting execution
// plan has branches+2 atoms with a genuine fan-out/fan-in shape.
func fanOutAssignments(pp *physical.Plan) map[int]engine.PlatformID {
	fa := make(map[int]engine.PlatformID, len(pp.Ops))
	branch := 0
	for _, op := range pp.Ops {
		switch op.Kind() {
		case plan.KindMap:
			if branch%2 == 0 {
				fa[op.ID] = javaengine.ID
			} else {
				fa[op.ID] = sparksim.ID
			}
			branch++
		default:
			fa[op.ID] = relengine.ID
		}
	}
	return fa
}

// optimizeFanOut builds and optimizes a fresh fan-out plan with the
// pinned assignments (rules disabled so the shape is exactly as built).
func optimizeFanOut(t *testing.T, reg *engine.Registry, branches, recs int, delay time.Duration) *optimizer.ExecutionPlan {
	t.Helper()
	pp := fanOutPlan(t, branches, recs, delay)
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{
		DisableRules:      true,
		ForcedAssignments: fanOutAssignments(pp),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// recordBytes serializes records for byte-identity comparison.
func recordBytes(t *testing.T, recs []data.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiamondDeterministicAcrossParallelism runs the same diamond at
// parallelism 1, 2 and 8 and demands byte-identical records and
// identical deterministic metrics — only wall time may differ.
func TestDiamondDeterministicAcrossParallelism(t *testing.T) {
	const branches, recs = 4, 100
	reg := triRegistry(t)

	type outcome struct {
		bytes   []byte
		metrics engine.Metrics
	}
	results := map[int]outcome{}
	for _, par := range []int{1, 2, 8} {
		ep := optimizeFanOut(t, reg, branches, recs, 0)
		if got := len(ep.Atoms); got != branches+2 {
			t.Fatalf("parallelism %d: %d atoms, want %d (source + branches + fan-in)", par, got, branches+2)
		}
		res, err := Run(ep, reg, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(res.Records) != branches*recs {
			t.Fatalf("parallelism %d: %d records, want %d", par, len(res.Records), branches*recs)
		}
		results[par] = outcome{bytes: recordBytes(t, res.Records), metrics: res.Metrics}
	}

	base := results[1]
	for _, par := range []int{2, 8} {
		got := results[par]
		if !bytes.Equal(base.bytes, got.bytes) {
			t.Errorf("parallelism %d records differ from sequential run", par)
		}
		if got.metrics.Jobs != base.metrics.Jobs {
			t.Errorf("parallelism %d: Jobs = %d, sequential = %d", par, got.metrics.Jobs, base.metrics.Jobs)
		}
		if got.metrics.InRecords != base.metrics.InRecords {
			t.Errorf("parallelism %d: InRecords = %d, sequential = %d", par, got.metrics.InRecords, base.metrics.InRecords)
		}
		if got.metrics.OutRecords != base.metrics.OutRecords {
			t.Errorf("parallelism %d: OutRecords = %d, sequential = %d", par, got.metrics.OutRecords, base.metrics.OutRecords)
		}
		if got.metrics.Conversions != base.metrics.Conversions {
			t.Errorf("parallelism %d: Conversions = %d, sequential = %d", par, got.metrics.Conversions, base.metrics.Conversions)
		}
	}
}

// TestWideFanOutStress hammers a wide fan-out at full parallelism; run
// under -race it doubles as the scheduler's data-race probe, and every
// repetition must reproduce the first run byte for byte.
func TestWideFanOutStress(t *testing.T) {
	const branches, recs, runs = 8, 64, 50
	reg := triRegistry(t)
	var want []byte
	for i := 0; i < runs; i++ {
		ep := optimizeFanOut(t, reg, branches, recs, 0)
		res, err := Run(ep, reg, Options{Parallelism: 8})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got := recordBytes(t, res.Records)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("run %d produced different records than run 0", i)
		}
	}
}

// TestParallelSpeedupWideFanOut checks the point of the scheduler: on
// a wide fan-out whose branches each carry real work, elapsed wall time
// at parallelism 8 must beat the sequential run by a clear margin.
func TestParallelSpeedupWideFanOut(t *testing.T) {
	const branches, recs = 8, 5
	const delay = 4 * time.Millisecond
	reg := triRegistry(t)

	run := func(par int) time.Duration {
		ep := optimizeFanOut(t, reg, branches, recs, delay)
		res, err := Run(ep, reg, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return res.Metrics.Wall
	}
	sequential := run(1)
	parallel := run(8)
	speedup := float64(sequential) / float64(parallel)
	t.Logf("sequential %v, parallel %v, speedup %.2fx", sequential, parallel, speedup)
	if speedup <= 1.3 {
		t.Errorf("speedup %.2fx at parallelism 8, want > 1.3x (sequential %v, parallel %v)",
			speedup, sequential, parallel)
	}
}

// TestSchedulerHonorsDependencies runs diamonds of every width at odd
// parallelism degrees; any dependency-tracking bug surfaces as a
// missing-channel error or wrong fan-in result.
func TestSchedulerHonorsDependencies(t *testing.T) {
	reg := triRegistry(t)
	for _, branches := range []int{1, 2, 3, 5} {
		for _, par := range []int{1, 3, 16} {
			ep := optimizeFanOut(t, reg, branches, 10, 0)
			res, err := Run(ep, reg, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("branches=%d parallelism=%d: %v", branches, par, err)
			}
			if len(res.Records) != branches*10 {
				t.Errorf("branches=%d parallelism=%d: %d records", branches, par, len(res.Records))
			}
		}
	}
}

// TestMonitorSerializedUnderParallelism asserts what a consumer
// monitoring a run through its tracer is promised: callbacks never
// overlap, so an unsynchronized callback counter still ends up exact,
// and per-atom event order stays start → done.
func TestMonitorSerializedUnderParallelism(t *testing.T) {
	const branches, recs = 8, 16
	reg := triRegistry(t)
	ep := optimizeFanOut(t, reg, branches, recs, 0)

	inCallback := false // would race (and trip -race) if calls overlapped
	starts := map[int]int{}
	dones := map[int]int{}
	var order []string
	res, err := Run(ep, reg, Options{Parallelism: 8, Tracer: trace.New(func(e trace.Event) {
		if inCallback {
			t.Error("monitor callback re-entered concurrently")
		}
		inCallback = true
		defer func() { inCallback = false }()
		switch e.Kind {
		case trace.SpanStart:
			starts[e.Span.AtomID]++
			if dones[e.Span.AtomID] > 0 {
				order = append(order, fmt.Sprintf("atom %d started after done", e.Span.AtomID))
			}
		case trace.SpanEnd:
			dones[e.Span.AtomID]++
			if starts[e.Span.AtomID] == 0 {
				order = append(order, fmt.Sprintf("atom %d done before start", e.Span.AtomID))
			}
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != branches*recs {
		t.Errorf("%d records", len(res.Records))
	}
	if len(starts) != branches+2 || len(dones) != branches+2 {
		t.Errorf("saw %d started / %d finished atoms, want %d", len(starts), len(dones), branches+2)
	}
	for _, msg := range order {
		t.Error(msg)
	}
}
