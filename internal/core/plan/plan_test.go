package plan

import (
	"math"
	"strings"
	"testing"

	"rheem/internal/data"
)

func sampleSource() SourceFunc {
	return Collection([]data.Record{data.NewRecord(data.Int(1))})
}

func TestBuildLinearPlan(t *testing.T) {
	b := NewBuilder("linear")
	s := b.Source("src", sampleSource())
	m := b.Map(s, Identity())
	f := b.Filter(m, func(data.Record) (bool, error) { return true, nil })
	b.Collect(f)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Operators()) != 4 {
		t.Errorf("got %d operators", len(p.Operators()))
	}
	if p.Sink().Kind() != KindSink {
		t.Error("sink kind wrong")
	}
	if p.Name() != "linear" {
		t.Error("name wrong")
	}
}

func TestBuildJoinPlan(t *testing.T) {
	b := NewBuilder("join")
	l := b.Source("l", sampleSource())
	r := b.Source("r", sampleSource())
	j := b.Join(l, r, FieldKey(0), FieldKey(0))
	b.Collect(j)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	consumers := 0
	for _, op := range p.Operators() {
		for _, in := range op.Inputs() {
			if in == l {
				consumers++
			}
		}
	}
	if consumers != 1 {
		t.Errorf("left source has %d consumers", consumers)
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("no sink", func(t *testing.T) {
		b := NewBuilder("p")
		b.Source("s", sampleSource())
		if _, err := b.Build(); err == nil {
			t.Error("plan without sink accepted")
		}
	})
	t.Run("missing UDF", func(t *testing.T) {
		b := NewBuilder("p")
		s := b.Source("s", nil)
		b.Collect(s)
		if _, err := b.Build(); err == nil {
			t.Error("source without SourceFunc accepted")
		}
	})
	t.Run("dangling operator", func(t *testing.T) {
		b := NewBuilder("p")
		s := b.Source("s", sampleSource())
		b.Map(s, Identity()) // never consumed
		b.Collect(s)
		if _, err := b.Build(); err == nil {
			t.Error("dangling operator accepted")
		}
	})
	t.Run("multiple sinks", func(t *testing.T) {
		b := NewBuilder("p")
		s := b.Source("s", sampleSource())
		b.Collect(s)
		b.Collect(s)
		if _, err := b.Build(); err == nil {
			t.Error("two sinks accepted")
		}
	})
	t.Run("double build", func(t *testing.T) {
		b := NewBuilder("p")
		s := b.Source("s", sampleSource())
		b.Collect(s)
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(); err == nil {
			t.Error("second Build accepted")
		}
	})
	t.Run("sample size", func(t *testing.T) {
		for n, ok := range map[int]bool{-1: false, 0: true, 3: true} { // 0 is LIMIT 0
			b := NewBuilder("p")
			b.Collect(b.Sample(b.Source("s", sampleSource()), n))
			if _, err := b.Build(); (err == nil) != ok {
				t.Errorf("Sample(%d): Build returned %v", n, err)
			}
		}
	})
	t.Run("loop input outside body", func(t *testing.T) {
		b := NewBuilder("p")
		li := b.LoopInput("in")
		b.Collect(li)
		if _, err := b.Build(); err == nil {
			t.Error("LoopInput in top-level plan accepted")
		}
	})
	t.Run("foreign operator", func(t *testing.T) {
		other := NewBuilder("other")
		foreign := other.Source("s", sampleSource())
		b := NewBuilder("p")
		m := b.Map(foreign, Identity())
		b.Collect(m)
		if _, err := b.Build(); err == nil {
			t.Error("operator from another builder accepted")
		}
	})
}

func TestLoopBodyValidation(t *testing.T) {
	makeBody := func() *Plan {
		bb := NewBodyBuilder("body")
		in := bb.LoopInput("state")
		m := bb.Map(in, Identity())
		bb.Collect(m)
		return bb.MustBuild()
	}
	t.Run("valid repeat", func(t *testing.T) {
		b := NewBuilder("p")
		s := b.Source("s", sampleSource())
		rep := b.Repeat(s, 3, makeBody())
		b.Collect(rep)
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("repeat without body", func(t *testing.T) {
		b := NewBuilder("p")
		s := b.Source("s", sampleSource())
		rep := b.Repeat(s, 3, nil)
		b.Collect(rep)
		if _, err := b.Build(); err == nil {
			t.Error("Repeat without body accepted")
		}
	})
	t.Run("non-body plan as body", func(t *testing.T) {
		nb := NewBuilder("notbody")
		s0 := nb.Source("s", sampleSource())
		nb.Collect(s0)
		notBody := nb.MustBuild()

		b := NewBuilder("p")
		s := b.Source("s", sampleSource())
		rep := b.Repeat(s, 3, notBody)
		b.Collect(rep)
		if _, err := b.Build(); err == nil {
			t.Error("top-level plan as loop body accepted")
		}
	})
	t.Run("dowhile", func(t *testing.T) {
		b := NewBuilder("p")
		s := b.Source("s", sampleSource())
		dw := b.DoWhile(s, func(int, []data.Record) (bool, error) { return false, nil }, 10, makeBody())
		b.Collect(dw)
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpKindArityAndString(t *testing.T) {
	if KindSource.Arity() != 0 || KindMap.Arity() != 1 || KindJoin.Arity() != 2 {
		t.Error("arity wrong")
	}
	if KindGroupBy.String() != "GroupBy" {
		t.Errorf("String = %q", KindGroupBy)
	}
	if !strings.HasPrefix(OpKind(99).String(), "OpKind(") {
		t.Error("unknown kind string")
	}
}

func TestCompareOpEval(t *testing.T) {
	one, two := data.Int(1), data.Int(2)
	cases := []struct {
		op   CompareOp
		a, b data.Value
		want bool
	}{
		{Less, one, two, true},
		{Less, two, one, false},
		{LessEq, one, one, true},
		{Greater, two, one, true},
		{GreaterEq, one, two, false},
		{GreaterEq, two, two, true},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%s %s %s = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if Less.String() != "<" || GreaterEq.String() != ">=" {
		t.Error("CompareOp strings wrong")
	}
}

func TestPlanString(t *testing.T) {
	b := NewBuilder("pretty")
	s := b.Source("src", sampleSource())
	m := b.Map(s, Identity())
	b.Collect(m)
	p := b.MustBuild()
	out := p.String()
	if !strings.Contains(out, "src") || !strings.Contains(out, "Map#1") {
		t.Errorf("String output missing operators:\n%s", out)
	}
}

func TestOperatorNames(t *testing.T) {
	b := NewBuilder("p")
	s := b.Source("mysource", sampleSource())
	m := b.Map(s, Identity())
	if s.Name() != "mysource" {
		t.Error("explicit name lost")
	}
	if m.Name() != "Map#1" {
		t.Errorf("derived name = %q", m.Name())
	}
}

func TestHelperUDFs(t *testing.T) {
	r := data.NewRecord(data.Int(5), data.Str("x"))

	k, err := FieldKey(1)(r)
	if err != nil || k.Str() != "x" {
		t.Error("FieldKey broken")
	}
	c, _ := ConstKey()(r)
	c2, _ := ConstKey()(data.NewRecord(data.Int(99)))
	if !data.Equal(c, c2) {
		t.Error("ConstKey not constant")
	}
	rk1, _ := RecordKey()(r)
	rk2, _ := RecordKey()(data.NewRecord(data.Int(5), data.Str("x")))
	if !data.Equal(rk1, rk2) {
		t.Error("RecordKey not deterministic")
	}

	sum, err := SumField(0)(data.NewRecord(data.Int(2)), data.NewRecord(data.Int(3)))
	if err != nil || sum.Field(0).Int() != 5 {
		t.Error("SumField int broken")
	}
	fsum, _ := SumField(0)(data.NewRecord(data.Float(1.5)), data.NewRecord(data.Float(1)))
	if fsum.Field(0).Float() != 2.5 {
		t.Error("SumField float broken")
	}

	src := Collection([]data.Record{r})
	got, err := src()
	if err != nil || len(got) != 1 {
		t.Error("Collection broken")
	}
}

// TestCompareOpHolds: the predicate form of a comparison follows the SQL
// rule — a null on either side satisfies no operator — and compares
// same-kind values exactly, where Eval orders nulls first and widens
// ints through float64.
func TestCompareOpHolds(t *testing.T) {
	null, five := data.Null(), data.Int(5)
	for op := Less; op <= NotEq; op++ {
		if op.Holds(null, five) || op.Holds(five, null) || op.Holds(null, null) {
			t.Errorf("%s holds with a null operand", op)
		}
	}
	if !Less.Eval(null, five) || !NotEq.Eval(null, five) {
		t.Error("Eval no longer orders null first")
	}
	big := int64(1) << 53
	if !Less.Holds(data.Int(big), data.Int(big+1)) || Eq.Holds(data.Int(big), data.Int(big+1)) {
		t.Error("Holds does not tell 2^53 from 2^53+1")
	}
	if !NotEq.Holds(data.Int(3), five) || !GreaterEq.Holds(five, data.Float(4.5)) {
		t.Error("Holds rejects plain comparisons")
	}
}

// TestGroupAggregateDerivedUDFs pins the row rendering of the grouped
// aggregate: an exact key — distinct tuples get distinct composites,
// however their hashes or their strings' concatenations fall, and equal
// tuples one — and SQL's null-skipping folds.
func TestGroupAggregateDerivedUDFs(t *testing.T) {
	b := NewBuilder("g")
	src := b.Source("s", Collection(nil))
	two := b.GroupAggregate(src, []int{0, 1}, GroupCol{Fn: GroupKey, Field: 1})
	b.Collect(two)
	keyOf := func(vals ...data.Value) string {
		k, err := two.Key(data.NewRecord(vals...))
		if err != nil {
			t.Fatal(err)
		}
		return k.Str()
	}
	apart := [][2][]data.Value{
		{{data.Int(1), data.Int(2)}, {data.Int(2), data.Int(1)}},
		{{data.Str("a"), data.Str("bc")}, {data.Str("ab"), data.Str("c")}},
		{{data.Str(""), data.Null()}, {data.Null(), data.Str("")}},
		{{data.Int(1), data.Int(2)}, {data.Float(1), data.Float(2)}},
		{{data.Bool(true), data.Int(1)}, {data.Int(1), data.Bool(true)}},
		{{data.Str("a\x04"), data.Str("")}, {data.Str("a"), data.Str("\x04")}},
	}
	for _, pair := range apart {
		if keyOf(pair[0]...) == keyOf(pair[1]...) {
			t.Errorf("tuples %v and %v share a key", pair[0], pair[1])
		}
	}
	negZero := data.Float(math.Copysign(0, -1))
	if keyOf(data.Float(0), data.Str("x")) != keyOf(negZero, data.Str("x")) {
		t.Error("-0 and +0, equal under data.Equal, get different composites")
	}

	g := &ColumnGroupAggregate{Keys: []int{0}, Out: []GroupCol{
		{GroupKey, 0}, {GroupCountAll, 0}, {GroupCount, 1}, {GroupSum, 1}, {GroupAvg, 1}, {GroupMin, 1}, {GroupMax, 1},
	}}
	rec := func(v data.Value) data.Record { return data.NewRecord(data.Str("k"), v) }
	big := int64(1) << 53
	for _, tc := range []struct {
		name  string
		group []data.Record
		want  string
	}{
		{"mixed", []data.Record{rec(data.Int(4)), rec(data.Null()), rec(data.Int(1)), rec(data.Int(7))}, "(k, 4, 3, 12, 4, 1, 7)"},
		{"all-null", []data.Record{rec(data.Null()), rec(data.Null())}, "(k, 2, 0, 0, 0, , )"},
		{"beyond-2^53", []data.Record{rec(data.Int(big)), rec(data.Int(big + 1))}, "(k, 2, 2, 1.8014398509481984e+16, 9.007199254740992e+15, 9007199254740992, 9007199254740993)"},
		{"nan-sorts-first", []data.Record{rec(data.Float(math.NaN())), rec(data.Float(1))}, "(k, 2, 2, NaN, NaN, NaN, 1)"},
	} {
		out, err := g.GroupFunc()(data.Str("k"), tc.group)
		if err != nil || len(out) != 1 || out[0].String() != tc.want {
			t.Errorf("%s folded to %v, %v; want %s", tc.name, out, err, tc.want)
		}
	}
}
