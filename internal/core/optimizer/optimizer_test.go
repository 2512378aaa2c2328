package optimizer

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

func fullRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{JobOverhead: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := relengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func physOf(t *testing.T, build func(b *plan.Builder)) *physical.Plan {
	t.Helper()
	b := plan.NewBuilder("p")
	build(b)
	lp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := physical.FromLogical(lp)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestOptimizeAssignsEverythingAndSplitsAtoms(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 1000
		f := b.Filter(s, func(data.Record) (bool, error) { return true, nil })
		g := b.ReduceByKey(f, plan.FieldKey(0), plan.SumField(0))
		b.Collect(g)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pp.Ops {
		if ep.Assignment[op.ID] == "" {
			t.Errorf("%s unassigned", op.Name())
		}
		if op.Algo == "" {
			t.Errorf("%s has no algorithm", op.Name())
		}
	}
	if len(ep.Atoms) == 0 {
		t.Fatal("no atoms")
	}
	if ep.Estimated.Total() <= 0 {
		t.Error("no estimated cost")
	}
	if !strings.Contains(ep.String(), "atom#") {
		t.Error("String misses atoms")
	}
}

func TestFixedPlatformPinsEverything(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Distinct(s))
	})
	for _, pin := range []engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID} {
		ep, err := Optimize(pp, fullRegistry(t), Options{FixedPlatform: pin})
		if err != nil {
			t.Fatalf("%s: %v", pin, err)
		}
		for _, op := range ep.Physical.Ops {
			if pl := ep.Assignment[op.ID]; pl != pin {
				t.Errorf("pin %s: op %d on %s", pin, op.ID, pl)
			}
		}
		// Single platform ⇒ single compute atom.
		if len(ep.Atoms) != 1 {
			t.Errorf("pin %s: %d atoms", pin, len(ep.Atoms))
		}
	}
}

func TestLargeInputPrefersSpark(t *testing.T) {
	reg := fullRegistry(t)
	small := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Map(s, plan.Identity()))
	})
	big := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 200_000_000
		b.Collect(b.Map(s, plan.Identity()))
	})
	epSmall, err := Optimize(small, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	epBig, err := Optimize(big, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range epSmall.Assignment {
		if pl == sparksim.ID {
			t.Error("small input landed on spark")
		}
	}
	sparkUsed := false
	for _, pl := range epBig.Assignment {
		if pl == sparksim.ID {
			sparkUsed = true
		}
	}
	if !sparkUsed {
		t.Errorf("huge input avoided spark: %v", epBig.Assignment)
	}
}

func TestIEJoinChosenForConditionedThetaJoin(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		l := b.Source("l", plan.Collection(nil))
		l.CardHint = 10000
		r := b.Source("r", plan.Collection(nil))
		r.CardHint = 10000
		tj := b.ThetaJoin(l, r, nil,
			plan.IECondition{LeftField: 0, Op: plan.Greater, RightField: 0},
			plan.IECondition{LeftField: 1, Op: plan.Less, RightField: 1})
		b.Collect(tj)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range ep.Physical.Ops {
		if op.Kind() == plan.KindThetaJoin {
			found = true
			if op.Algo != physical.IEJoin {
				t.Errorf("theta join algo = %s, want ie-join", op.Algo)
			}
		}
	}
	if !found {
		t.Fatal("no theta join in plan")
	}
}

func TestLoopBodiesOptimizedRecursively(t *testing.T) {
	bb := plan.NewBodyBuilder("body")
	in := bb.LoopInput("st")
	m := bb.Map(in, plan.Identity())
	bb.Collect(m)
	body := bb.MustBuild()

	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 10
		rep := b.Repeat(s, 5, body)
		b.Collect(rep)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var loopID int = -1
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindRepeat {
			loopID = op.ID
		}
	}
	bodyEP := ep.LoopBodies[loopID]
	if bodyEP == nil {
		t.Fatal("loop body not optimized")
	}
	if len(bodyEP.Atoms) == 0 {
		t.Error("loop body has no atoms")
	}
	// Loop atom present in outer plan.
	loops := 0
	for _, a := range ep.Atoms {
		if a.Kind == engine.AtomLoop {
			loops++
		}
	}
	if loops != 1 {
		t.Errorf("%d loop atoms", loops)
	}
}

// TestLoopPlanSlicesHoldOnlyTheirOps: a plan's per-operator slices are
// indexed by the ID space its loop bodies share. In the top-level plan and
// in each body, every operator of that plan has a platform and every other
// ID has the zero platform and zero costs, calibrated or not.
func TestLoopPlanSlicesHoldOnlyTheirOps(t *testing.T) {
	bb := plan.NewBodyBuilder("body")
	bb.Collect(bb.Filter(bb.Map(bb.LoopInput("st"), plan.Identity()), func(data.Record) (bool, error) { return true, nil }))
	body := bb.MustBuild()
	for _, cal := range []*cost.Calibrator{nil, cost.NewCalibrator(cost.CalibratorConfig{})} {
		pp := physOf(t, func(b *plan.Builder) {
			s := b.Source("s", plan.Collection(nil))
			s.CardHint = 10
			b.Collect(b.Map(b.Repeat(s, 5, body), plan.Identity()))
		})
		ep, err := Optimize(pp, fullRegistry(t), Options{Calibration: cal})
		if err != nil {
			t.Fatal(err)
		}
		plans := []*ExecutionPlan{ep}
		for _, b := range ep.LoopBodies {
			plans = append(plans, b)
		}
		if len(plans) != 2 {
			t.Fatalf("%d loop bodies, want 1", len(plans)-1)
		}
		for _, e := range plans {
			n := e.Physical.IDBound()
			if len(e.Assignment) != n || len(e.OpCosts) != n || len(e.RawOpCosts) != n {
				t.Fatalf("%q: slices %d, %d, %d long, want the ID bound %d", e.Physical.Name, len(e.Assignment), len(e.OpCosts), len(e.RawOpCosts), n)
			}
			ops := make([]bool, n)
			for _, op := range e.Physical.Ops {
				ops[op.ID] = true
			}
			for id := range ops {
				switch {
				case ops[id] && e.Assignment[id] == "":
					t.Errorf("%q, calibrated %t: op %d has no platform", e.Physical.Name, cal != nil, id)
				case !ops[id] && (e.Assignment[id] != "" || e.OpCosts[id] != (cost.Cost{}) || e.RawOpCosts[id] != (cost.Cost{})):
					t.Errorf("%q, calibrated %t: ID %d is not in the plan but holds %q, %v, %v", e.Physical.Name, cal != nil, id, e.Assignment[id], e.OpCosts[id], e.RawOpCosts[id])
				}
			}
		}
	}
}

func TestAtomConvexityOnDiamond(t *testing.T) {
	// Diamond: source → (mapA, mapB) → union. All on one platform must
	// fold into one atom; the atom order must stay valid.
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		a := b.Map(s, plan.Identity())
		c := b.Map(s, plan.Identity())
		u := b.Union(a, c)
		b.Collect(u)
	})
	ep, err := Optimize(pp, fullRegistry(t), Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Atoms) != 1 {
		t.Errorf("diamond split into %d atoms", len(ep.Atoms))
	}
	// Exits: only the sink leaves the atom.
	if len(ep.Atoms[0].Exits) != 1 {
		t.Errorf("diamond atom has %d exits", len(ep.Atoms[0].Exits))
	}
}

func TestNoPlatformForKindFails(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		b.Collect(s)
	})
	// Empty registry entirely.
	empty := engine.NewRegistry()
	if _, err := Optimize(pp, empty, Options{}); err == nil {
		t.Error("optimization without platforms accepted")
	}
	_ = reg
}

func TestExcludePlatformsAvoidsQuarantined(t *testing.T) {
	reg := fullRegistry(t)
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Map(s, plan.Identity()))
	})
	// Small input would normally land on java; exclude it and demand
	// the plan avoids it everywhere.
	ep, err := Optimize(pp, reg, Options{
		ExcludePlatforms: map[engine.PlatformID]bool{javaengine.ID: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, pl := range ep.Assignment {
		if pl == javaengine.ID {
			t.Errorf("op %d assigned to excluded platform", id)
		}
	}
	// Excluding every capable platform must fail, not silently pick one.
	_, err = Optimize(pp, reg, Options{ExcludePlatforms: map[engine.PlatformID]bool{
		javaengine.ID: true, sparksim.ID: true, relengine.ID: true,
	}})
	if err == nil {
		t.Error("optimization with every platform excluded accepted")
	}
}

func TestExcludePlatformsKeepsFrozenAssignments(t *testing.T) {
	reg := fullRegistry(t)
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 100
		b.Collect(b.Map(s, plan.Identity()))
	})
	srcID := -1
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			srcID = op.ID
		}
	}
	if srcID < 0 {
		t.Fatal("no source op")
	}
	// The frozen (already-executed) source keeps its assignment on the
	// excluded platform — it will never run again — while everything
	// downstream is re-planned off it. This is the failover re-planning
	// contract.
	ep, err := Optimize(pp, reg, Options{
		DisableRules:      true,
		Frozen:            map[int]bool{srcID: true},
		ForcedAssignments: map[int]engine.PlatformID{srcID: javaengine.ID},
		ExcludePlatforms:  map[engine.PlatformID]bool{javaengine.ID: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Assignment[srcID] != javaengine.ID {
		t.Errorf("frozen source moved to %s", ep.Assignment[srcID])
	}
	for id, pl := range ep.Assignment {
		if id != srcID && pl == javaengine.ID {
			t.Errorf("re-planned op %d still on excluded platform", id)
		}
	}
}

// tiePlan has a branch and an algorithm choice, so every comparison the
// DP makes — producer platform per input, algorithm per cell, platform
// for the sink — sees tied alternatives on a cloned-platform registry.
func tiePlan(t *testing.T) *physical.Plan {
	return physOf(t, func(b *plan.Builder) {
		l := b.Source("l", plan.Collection(nil))
		l.CardHint = 5000
		r := b.Source("r", plan.Collection(nil))
		r.CardHint = 300
		f := b.Filter(l, func(data.Record) (bool, error) { return true, nil })
		j := b.Join(f, r, plan.FieldKey(0), plan.FieldKey(0))
		b.Collect(b.ReduceByKey(j, plan.FieldKey(0), plan.SumField(0)))
	})
}

// TestClonedPlatformTieIsStable pins the DP's tie-break: a platform and
// its CloneMappings twin price every operator identically and exchange
// data for free (same native format), so every cell ties — and the
// platform registered first must win every one of them, every time. The
// map-based DP broke these ties by Go map iteration order and flipped
// the plan between runs.
func TestClonedPlatformTieIsStable(t *testing.T) {
	javaThenTwin := engine.NewRegistry()
	java, err := javaengine.Register(javaThenTwin)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Register(javaThenTwin, fault.Wrap(java, fault.Options{ID: "twin"}), javaengine.ID); err != nil {
		t.Fatal(err)
	}
	// The twin's *platform* registered first, its mappings cloned after
	// the donor's exist: platform order decides, not mapping order.
	twinThenJava := engine.NewRegistry()
	if err := twinThenJava.RegisterPlatform(fault.Wrap(javaengine.New(), fault.Options{ID: "twin"})); err != nil {
		t.Fatal(err)
	}
	if _, err := javaengine.Register(twinThenJava); err != nil {
		t.Fatal(err)
	}
	if err := twinThenJava.CloneMappings(javaengine.ID, "twin"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		reg  *engine.Registry
		want engine.PlatformID
	}{{"java-first", javaThenTwin, javaengine.ID}, {"twin-first", twinThenJava, "twin"}} {
		first := ""
		for i := 0; i < 200; i++ {
			ep, err := Optimize(tiePlan(t), c.reg, Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, op := range ep.Physical.Ops {
				if pl := ep.Assignment[op.ID]; pl != c.want {
					t.Fatalf("%s run %d: op %d on %s, want every op on the first-registered %s", c.name, i, op.ID, pl, c.want)
				}
			}
			if got := ep.String(); first == "" {
				first = got
			} else if got != first {
				t.Fatalf("%s run %d: plan changed between runs:\n%s\nvs\n%s", c.name, i, got, first)
			}
		}
	}
}

// TestRegistryReadsRaceWithRegistration is the snapshot registries'
// -race test: eight goroutines price paths, look mappings up and
// optimize while the main goroutine keeps registering converters,
// mappings and whole cloned platforms. Nothing registered changes a
// cost (appended duplicates never win a lookup, the new formats are
// islands, a clone ties and loses), so every plan must still read the
// same.
func TestRegistryReadsRaceWithRegistration(t *testing.T) {
	reg := fullRegistry(t)
	java, _ := reg.Platform(javaengine.ID)
	ref, err := Optimize(tiePlan(t), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()
	wantMove, _ := reg.Channels().PathCost(channel.Table, channel.Partitioned, 1<<20)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c, ok := reg.Channels().PathCost(channel.Table, channel.Partitioned, 1<<20); !ok || c != wantMove {
					t.Errorf("PathCost = %v, %v; want %v", c, ok, wantMove)
					return
				}
				if _, ok := reg.MappingFor(sparksim.ID, plan.KindJoin, physical.HashJoin); !ok {
					t.Error("MappingFor lost spark's hash join")
					return
				}
				ep, err := Optimize(tiePlan(t), reg, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if got := ep.String(); got != want {
					t.Errorf("plan changed under registration:\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		from, to := channel.Format(fmt.Sprintf("island-%d", i)), channel.Format(fmt.Sprintf("island-%d", i+1))
		reg.Channels().Register(channel.Converter{From: from, To: to})
		m, _ := reg.MappingFor(javaengine.ID, plan.KindMap, physical.Default)
		if err := reg.RegisterMapping(m); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			id := engine.PlatformID(fmt.Sprintf("java-clone-%d", i))
			if err := fault.Register(reg, fault.Wrap(java, fault.Options{ID: id}), javaengine.ID); err != nil {
				t.Fatal(err)
			}
		}
		reg.RewriteCosts(relengine.ID, func(m cost.Model) cost.Model { return m })
	}
	close(stop)
	wg.Wait()
}

// benchRegistry registers the three bundled platforms and then clones
// of them (fault-free wrappers under new IDs) up to n platforms; n < 3
// registers only the first n.
func benchRegistry(tb testing.TB, n int) *engine.Registry {
	tb.Helper()
	reg := engine.NewRegistry()
	var bundled []engine.Platform
	j, err := javaengine.Register(reg)
	if err != nil {
		tb.Fatal(err)
	}
	bundled = append(bundled, j)
	if n >= 2 {
		s, err := sparksim.Register(reg, sparksim.Config{})
		if err != nil {
			tb.Fatal(err)
		}
		bundled = append(bundled, s)
	}
	if n >= 3 {
		r, err := relengine.Register(reg)
		if err != nil {
			tb.Fatal(err)
		}
		bundled = append(bundled, r)
	}
	for i := len(bundled); i < n; i++ {
		donor := bundled[i%len(bundled)]
		id := engine.PlatformID(fmt.Sprintf("%s-%d", donor.ID(), i))
		if err := fault.Register(reg, fault.Wrap(donor, fault.Options{ID: id}), donor.ID()); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// BenchmarkOptimize prices the whole planning step — rules, estimates,
// DP, atom split — against plan width (parallel filter→map branches
// folded by unions into one reduce) and platform count. One op is one
// Optimize of a freshly translated plan; the translation is untimed.
func BenchmarkOptimize(b *testing.B) {
	for _, width := range []int{1, 4, 16} {
		pb := plan.NewBuilder("bench")
		var out *plan.Operator
		for i := 0; i < width; i++ {
			s := pb.Source(fmt.Sprintf("s%d", i), plan.Collection(nil))
			s.CardHint = int64(1000 * (i + 1))
			leg := pb.Map(pb.Filter(s, func(data.Record) (bool, error) { return true, nil }), plan.Identity())
			if out == nil {
				out = leg
			} else {
				out = pb.Union(out, leg)
			}
		}
		pb.Collect(pb.ReduceByKey(out, plan.FieldKey(0), plan.SumField(0)))
		lp := pb.MustBuild()
		for _, platforms := range []int{1, 3, 6} {
			reg := benchRegistry(b, platforms)
			b.Run(fmt.Sprintf("width=%d/platforms=%d", width, platforms), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					pp, err := physical.FromLogical(lp)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := Optimize(pp, reg, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDPCellLayout: a DP cell is 16 bytes — its total, the offset of its
// input picks, its algorithm's index among physical.Candidates and whether
// it is feasible. With a cost vector nobody read, an algorithm's name and
// a slice of picks in every cell it was 88, and the table was the largest
// allocation of a colscan-1m job.
func TestDPCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(choice{}); got != 16 {
		t.Errorf("a DP cell is %d bytes, want 16", got)
	}
}
