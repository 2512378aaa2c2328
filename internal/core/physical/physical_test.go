package physical

import (
	"strings"
	"testing"

	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func buildLogical(t *testing.T) *plan.Plan {
	t.Helper()
	b := plan.NewBuilder("p")
	s := b.Source("src", plan.Collection(nil))
	f := b.Filter(s, func(data.Record) (bool, error) { return true, nil })
	g := b.GroupBy(f, plan.FieldKey(0), func(_ data.Value, recs []data.Record) ([]data.Record, error) {
		return recs, nil
	})
	b.Collect(g)
	return b.MustBuild()
}

func TestFromLogical(t *testing.T) {
	p, err := FromLogical(buildLogical(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 4 {
		t.Fatalf("got %d physical ops", len(p.Ops))
	}
	if p.SinkOp == nil || p.SinkOp.Kind() != plan.KindSink {
		t.Error("sink not identified")
	}
	for _, op := range p.Ops {
		if op.Algo != "" && op.Algo != Default {
			t.Errorf("%s has premature algorithm %s", op.Name(), op.Algo)
		}
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFromLogicalLoopBody(t *testing.T) {
	bb := plan.NewBodyBuilder("body")
	in := bb.LoopInput("st")
	m := bb.Map(in, plan.Identity())
	bb.Collect(m)
	body := bb.MustBuild()

	b := plan.NewBuilder("p")
	s := b.Source("src", plan.Collection(nil))
	rep := b.Repeat(s, 2, body)
	b.Collect(rep)
	lp := b.MustBuild()

	p, err := FromLogical(lp)
	if err != nil {
		t.Fatal(err)
	}
	var repOp *Operator
	for _, op := range p.Ops {
		if op.Kind() == plan.KindRepeat {
			repOp = op
		}
	}
	if repOp == nil || repOp.Body == nil {
		t.Fatal("Repeat physical op lacks body plan")
	}
	if len(repOp.Body.Ops) != 3 {
		t.Errorf("body has %d ops", len(repOp.Body.Ops))
	}
}

// TestFromLogicalAllocatesPerPlan pins the slab translation: a plan
// costs three objects — the plan with its ID counter, the operator
// slab, one array for the operator list and every input list — however
// wide it is, and a loop body three more (its plan, slab and array).
func TestFromLogicalAllocatesPerPlan(t *testing.T) {
	chain := func(width int) *plan.Plan {
		b := plan.NewBuilder("chain")
		op := b.Source("src", plan.Collection(nil))
		for i := 0; i < width-2; i++ {
			op = b.Filter(op, func(data.Record) (bool, error) { return true, nil })
		}
		b.Collect(op)
		return b.MustBuild()
	}
	bb := plan.NewBodyBuilder("body")
	bb.Collect(bb.Map(bb.LoopInput("st"), plan.Identity()))
	b := plan.NewBuilder("loop")
	b.Collect(b.Repeat(b.Source("src", plan.Collection(nil)), 2, bb.MustBuild()))
	for _, c := range []struct {
		name string
		p    *plan.Plan
		want float64
	}{{"4 operators", chain(4), 3}, {"64 operators", chain(64), 3}, {"a loop", b.MustBuild(), 6}} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := FromLogical(c.p); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("translating %s made %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

func TestCandidates(t *testing.T) {
	p, _ := FromLogical(buildLogical(t))
	var groupOp *Operator
	for _, op := range p.Ops {
		if op.Kind() == plan.KindGroupBy {
			groupOp = op
		}
	}
	algos := Candidates(groupOp)
	if len(algos) != 2 || algos[0] != HashGroupBy || algos[1] != SortGroupBy {
		t.Errorf("GroupBy candidates = %v", algos)
	}

	// ThetaJoin with declarative conditions offers IEJoin.
	b := plan.NewBuilder("tj")
	l := b.Source("l", plan.Collection(nil))
	r := b.Source("r", plan.Collection(nil))
	tj := b.ThetaJoin(l, r, nil, plan.IECondition{LeftField: 0, Op: plan.Less, RightField: 0})
	b.Collect(tj)
	pp, err := FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindThetaJoin {
			algos := Candidates(op)
			if algos[0] != IEJoin {
				t.Errorf("conditioned ThetaJoin candidates = %v", algos)
			}
		}
	}
}

// candidatesFn is Candidates behind a package variable, so a call
// through it is never inlined into the caller.
var (
	candidatesFn = Candidates
	candidatesTo []Algorithm
)

// TestCandidatesAllocateNothing hands out the decision space of an
// operator of every kind through a call that is not inlined: it must
// allocate nothing, which a slice literal does only while the inliner
// lets the caller's stack hold it.
func TestCandidatesAllocateNothing(t *testing.T) {
	mapFn := func(r data.Record) (data.Record, error) { return r, nil }
	reduceFn := func(a, _ data.Record) (data.Record, error) { return a, nil }
	pred := func(data.Record, data.Record) (bool, error) { return true, nil }
	key := plan.FieldKey(0)
	bb := plan.NewBodyBuilder("body")
	in := bb.LoopInput("in")
	bb.Collect(bb.Map(in, mapFn))
	body := bb.MustBuild()

	b := plan.NewBuilder("kinds")
	s := b.Source("s", plan.Collection(nil))
	ops := []*plan.Operator{
		s, in, b.Map(s, mapFn),
		b.FlatMap(s, func(r data.Record) ([]data.Record, error) { return nil, nil }),
		b.Filter(s, func(data.Record) (bool, error) { return true, nil }),
		b.GroupBy(s, key, func(_ data.Value, g []data.Record) ([]data.Record, error) { return g, nil }),
		b.ReduceByKey(s, key, reduceFn), b.Reduce(s, reduceFn), b.Sort(s, key, false),
		b.Distinct(s), b.Union(s, s), b.Join(s, s, key, key), b.ThetaJoin(s, s, pred),
		b.ThetaJoin(s, s, nil, plan.IECondition{Op: plan.Less}), b.Cartesian(s, s),
		b.Count(s), b.Sample(s, 1), b.Repeat(s, 2, body),
		b.DoWhile(s, func(int, []data.Record) (bool, error) { return false, nil }, 2, body),
		b.Collect(s),
	}
	seen := map[plan.OpKind]bool{}
	for _, lop := range ops {
		op := &Operator{Logical: lop}
		seen[lop.Kind()] = true
		if got := testing.AllocsPerRun(100, func() { candidatesTo = candidatesFn(op) }); got != 0 {
			t.Errorf("Candidates of a %s made %.0f allocations, want 0", lop.Kind(), got)
		}
	}
	for k := plan.KindSource; k <= plan.KindSink; k++ {
		if !seen[k] {
			t.Errorf("no %s operator was checked", k)
		}
	}
}

func TestRemoveAndNormalize(t *testing.T) {
	p, _ := FromLogical(buildLogical(t))
	var filterOp *Operator
	for _, op := range p.Ops {
		if op.Kind() == plan.KindFilter {
			filterOp = op
		}
	}
	if err := p.Remove(filterOp); err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 3 {
		t.Fatalf("got %d ops after removal", len(p.Ops))
	}
	if err := p.Validate(); err != nil {
		t.Errorf("plan invalid after removal: %v", err)
	}
	// Removing the sink must fail.
	if err := p.Remove(p.SinkOp); err == nil {
		t.Error("removed the sink")
	}
}

func TestNewEnhancerAndNormalize(t *testing.T) {
	p, _ := FromLogical(buildLogical(t))
	var filterOp, groupOp *Operator
	for _, op := range p.Ops {
		switch op.Kind() {
		case plan.KindFilter:
			filterOp = op
		case plan.KindGroupBy:
			groupOp = op
		}
	}
	// Insert an identity-map enhancer between filter and group.
	enh := p.NewEnhancer(&plan.Operator{}, filterOp)
	_ = enh
	// The synthesized logical operator must behave like a Map; build a
	// real one through a body builder trick is overkill — enhancers in
	// practice are built by apps with proper logical ops. Here we only
	// verify wiring and ordering.
	groupOp.ReplaceInput(filterOp, enh)
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Enhancer must be ordered before its consumer.
	pos := map[int]int{}
	for i, op := range p.Ops {
		pos[op.ID] = i
	}
	if pos[enh.ID] > pos[groupOp.ID] {
		t.Error("Normalize left enhancer after consumer")
	}
	if !strings.Contains(enh.Name(), "+") {
		t.Errorf("enhancer name %q lacks marker", enh.Name())
	}
}

func TestNormalizeDetectsCycle(t *testing.T) {
	p, _ := FromLogical(buildLogical(t))
	// Wire a cycle: filter consumes group.
	var filterOp, groupOp *Operator
	for _, op := range p.Ops {
		switch op.Kind() {
		case plan.KindFilter:
			filterOp = op
		case plan.KindGroupBy:
			groupOp = op
		}
	}
	filterOp.Inputs[0] = groupOp
	if err := p.Normalize(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestPlanString(t *testing.T) {
	p, _ := FromLogical(buildLogical(t))
	p.Ops[2].Algo = SortGroupBy
	out := p.String()
	if !strings.Contains(out, "sort-groupby") {
		t.Errorf("String misses algorithm:\n%s", out)
	}
}
