package cost

import (
	"testing"
	"time"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func TestCostArithmetic(t *testing.T) {
	a := Cost{CPU: 1 * time.Second, IO: 2 * time.Second, Net: 3 * time.Second, Startup: 4 * time.Second}
	b := Cost{CPU: 10 * time.Millisecond}
	sum := a.Plus(b)
	if sum.CPU != 1010*time.Millisecond || sum.Startup != 4*time.Second {
		t.Errorf("Plus = %v", sum)
	}
	if a.Total() != 10*time.Second {
		t.Errorf("Total = %v", a.Total())
	}
	half := a.Times(0.5)
	if half.IO != time.Second {
		t.Errorf("Times = %v", half)
	}
	if s := a.String(); s == "" {
		t.Error("empty String")
	}
}

func TestModelHelpers(t *testing.T) {
	cm := ConstModel(Cost{CPU: 5})
	if cm(nil, nil, 0).CPU != 5 {
		t.Error("ConstModel broken")
	}
	pr := PerRecord(time.Millisecond, 10*time.Nanosecond, 20*time.Nanosecond)
	c := pr(nil, []int64{100, 50}, 10)
	if c.Startup != time.Millisecond {
		t.Error("PerRecord startup wrong")
	}
	if c.CPU != 150*10*time.Nanosecond+10*20*time.Nanosecond {
		t.Errorf("PerRecord cpu = %v", c.CPU)
	}
}

func physPlan(t *testing.T, build func(b *plan.Builder)) *physical.Plan {
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

func TestEstimateLinear(t *testing.T) {
	pp := physPlan(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 10000
		f := b.Filter(s, func(data.Record) (bool, error) { return true, nil })
		f.Selectivity = 0.1
		m := b.Map(f, plan.Identity())
		b.Collect(m)
	})
	est := Estimate(pp, nil, nil)
	cards := make([]int64, len(pp.Ops))
	for i, op := range pp.Ops {
		cards[i] = est.Cards[op.ID]
	}
	want := []int64{10000, 1000, 1000, 1000}
	for i, w := range want {
		if cards[i] != w {
			t.Errorf("card[%d] = %d, want %d", i, cards[i], w)
		}
	}
	if est.Bytes(pp.Ops[0].ID) != 10000*DefaultRecBytes {
		t.Error("Bytes estimate wrong")
	}
}

func TestEstimateDefaultsAndKinds(t *testing.T) {
	pp := physPlan(t, func(b *plan.Builder) {
		l := b.Source("l", plan.Collection(nil)) // no hint → default card
		r := b.Source("r", plan.Collection(nil))
		r.CardHint = 200
		j := b.Join(l, r, plan.FieldKey(0), plan.FieldKey(0))
		g := b.ReduceByKey(j, plan.FieldKey(0), plan.SumField(0))
		c := b.Count(g)
		b.Collect(c)
	})
	est := Estimate(pp, nil, nil)
	get := func(kind plan.OpKind) int64 {
		for _, op := range pp.Ops {
			if op.Kind() == kind {
				return est.Cards[op.ID]
			}
		}
		t.Fatalf("no %v op", kind)
		return 0
	}
	if get(plan.KindSource) == 0 {
		t.Error("default source card is 0")
	}
	if get(plan.KindJoin) != DefaultSourceCard { // max(1000, 200)
		t.Errorf("join card = %d", get(plan.KindJoin))
	}
	if get(plan.KindReduceByKey) != 31 { // √1000 keys
		t.Errorf("reducebykey card = %d", get(plan.KindReduceByKey))
	}
	if get(plan.KindCount) != 1 {
		t.Errorf("count card = %d", get(plan.KindCount))
	}
}

func TestEstimateCartesianAndTheta(t *testing.T) {
	pp := physPlan(t, func(b *plan.Builder) {
		l := b.Source("l", plan.Collection(nil))
		l.CardHint = 100
		r := b.Source("r", plan.Collection(nil))
		r.CardHint = 30
		tj := b.ThetaJoin(l, r, func(a, c data.Record) (bool, error) { return true, nil })
		tj.Selectivity = 0.5
		b.Collect(tj)
	})
	est := Estimate(pp, nil, nil)
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindThetaJoin {
			if est.Cards[op.ID] != 1500 {
				t.Errorf("theta join card = %d, want 1500", est.Cards[op.ID])
			}
		}
	}
}

func TestEstimateLoopBody(t *testing.T) {
	bb := plan.NewBodyBuilder("body")
	in := bb.LoopInput("st")
	m := bb.Map(in, plan.Identity())
	bb.Collect(m)
	body := bb.MustBuild()

	pp := physPlan(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 500
		rep := b.Repeat(s, 3, body)
		b.Collect(rep)
	})
	est := Estimate(pp, nil, nil)
	var repOp *physical.Operator
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindRepeat {
			repOp = op
		}
	}
	if est.Cards[repOp.ID] != 500 {
		t.Errorf("loop output card = %d, want 500 (identity body)", est.Cards[repOp.ID])
	}
	// Body ops estimated with the loop input bound.
	for _, op := range repOp.Body.Ops {
		if op.Kind() == plan.KindLoopInput && est.Cards[op.ID] != 500 {
			t.Errorf("loop input card = %d", est.Cards[op.ID])
		}
	}
}

func TestDistinctSqrtDefault(t *testing.T) {
	pp := physPlan(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		s.CardHint = 10000
		d := b.Distinct(s)
		b.Collect(d)
	})
	est := Estimate(pp, nil, nil)
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindDistinct {
			if est.Cards[op.ID] != 100 { // √10000
				t.Errorf("distinct card = %d, want 100", est.Cards[op.ID])
			}
		}
	}
}
