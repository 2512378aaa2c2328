// The differential battery runner. Platform choice is a cost decision,
// never a semantics decision (paper §2: "the same logical plan can run on
// any platform with the same result"), and every differential suite of
// this package checks it one way: a table of cases, the cells each runs
// in, and the reference cell each cell's answer must equal — or, without
// one, the answer the case carries. run runs a case in a cell; check runs
// it in every cell of a battery, which logs how many cells it checked.
//
// Answers compare in canonical form, the sorted individual binary record
// encodings: the hash-grouping engines iterate Go maps, so even a single
// platform's output order is unspecified for grouped shapes — the
// multiset is the contract.
package core

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// confPlatforms are the conformance targets: every platform that maps
// the full operator set.
var confPlatforms = []engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID}

func confRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	_, errJava := javaengine.Register(reg)
	_, errSpark := sparksim.Register(reg, sparksim.Config{})
	_, errRel := relengine.Register(reg)
	if err := errors.Join(errJava, errSpark, errRel); err != nil {
		t.Fatal(err)
	}
	return reg
}

// cell is one configuration a case runs in. As a battery's reference, an
// axis left at zero is the checked cell's; the calibrator is its own.
type cell struct {
	platform engine.PlatformID
	workers  int // GOMAXPROCS
	form     form
	src      rest
	place    place
	cal      *cost.Calibrator
}

type (
	form  string // which plan of a case runs
	rest  string // how the sources hold their records
	place string // where the operators run
)

// The axes' values. fed puts the sources on a feeder platform and the
// rest on the cell's, so every answer crosses a platform boundary into
// the compute atom; pinned puts all on the cell's, each source in one atom
// with its readers — the shape Context.Execute gives a pinned plan;
// drained puts the sink and the operator it reads on the feeder, so that
// operator's input leaves its atom.
const (
	hinted form = "hinted"            // the plan as built
	twin   form = "twin"              // its UDF twin (udfTwin), column maps the case's hand-written row maps
	hand   form = "hand-written twin" // column maps the case's hand-written row maps, the other hints kept

	rows    rest = "rows"            // row sources
	columns rest = "columns at rest" // batches at rest (plan.SourceColumns)

	fed     place = "fed"
	pinned  place = "pinned"
	drained place = "drained"
)

// of is the reference ref names for the checked cell x.
func (ref cell) of(x cell) cell {
	return cell{cmp.Or(ref.platform, x.platform), cmp.Or(ref.workers, x.workers), cmp.Or(ref.form, x.form),
		cmp.Or(ref.src, x.src), cmp.Or(ref.place, x.place), ref.cal}
}

func (x cell) String() string {
	s := fmt.Sprintf("%s at GOMAXPROCS %d, %s, %s, %s", x.platform, x.workers, x.form, x.src, x.place)
	if x.cal != nil {
		s += fmt.Sprintf(", calibrated from %d folds", x.cal.Folds())
	}
	return s
}

// grid is every platform × GOMAXPROCS {1, 4} × variant cell: a platform's
// parallelism inside an atom — javaengine's windows, sparksim's
// partitions, on engine's helper runtime — must not change a byte of any
// answer. A variant sets the other axes.
func grid(platforms []engine.PlatformID, variants ...cell) []cell {
	var cells []cell
	for _, p := range platforms {
		for _, workers := range []int{1, 4} {
			for _, v := range variants {
				v.platform, v.workers = p, workers
				cells = append(cells, v)
			}
		}
	}
	return cells
}

// bcase is one plan shape of the battery.
type bcase struct {
	name  string
	recs  [][]data.Record                      // each source's records
	build func(b *builder, s []*plan.Operator) // wires the plan from the sources to a Collect sink
	algo  physical.Algorithm                   // when set, what every operator that has it among its candidates runs
	// want is the answer in a battery without a reference; wantErr, when
	// set, is how every cell's failure — its first line — must end.
	want    []data.Record
	wantErr string
	ordered bool                                  // answers compare in order, not as multisets
	check   func(t *testing.T, x cell, o outcome) // the case's own check of every run
	batches []shared                              // while checked: the batches its plans share
}

// shared is a batch every plan of a case over recs reads, as every job
// over a catalog table or one built-in's input reads one.
type shared struct {
	recs []data.Record
	cols *batch.Batch
}

// outcome is what a run gives: the canonical answer, or the failure.
type outcome struct {
	ans string
	err error
	ep  *optimizer.ExecutionPlan
}

// one is a case over one source of recs.
func one(name string, recs []data.Record, build func(b *builder, src *plan.Operator)) bcase {
	return bcase{name: name, recs: [][]data.Record{recs}, build: func(b *builder, s []*plan.Operator) { build(b, s[0]) }}
}

// builder is the plan builder a case builds on, with the cell it builds
// for, whose form the sources and column maps a case adds take.
type builder struct {
	*plan.Builder
	c *bcase
	x cell
}

// body is a loop body's builder.
func (b *builder) body(name string) *builder { return &builder{plan.NewBodyBuilder(name), b.c, b.x} }

// source adds a source serving recs, at rest in columns in a columns
// cell — row-backed, and so without the hint, when recs are ragged.
func (b *builder) source(name string, recs []data.Record) *plan.Operator {
	if b.x.src != columns {
		return rowSource(b.Builder, name, recs)
	}
	i := slices.IndexFunc(b.c.batches, func(s shared) bool { return len(recs) > 0 && &s.recs[0] == &recs[0] && len(s.recs) == len(recs) })
	if i < 0 {
		i, b.c.batches = len(b.c.batches), append(b.c.batches, shared{recs, batch.FromRecords(recs)})
	}
	return b.SourceColumns(name, b.c.batches[i].cols, nil)
}

func rowSource(b *plan.Builder, name string, recs []data.Record) *plan.Operator {
	src := b.Source(name, plan.Collection(recs))
	src.CardHint = int64(len(recs))
	return src
}

// plan is c's logical plan, named name, as cell x builds it.
func (c *bcase) plan(name string, x cell) *plan.Plan {
	b := &builder{plan.NewBuilder(name), c, x}
	srcs := make([]*plan.Operator, len(c.recs))
	for i, recs := range c.recs {
		srcs[i] = b.source(fmt.Sprintf("src%d", i), recs)
	}
	c.build(b, srcs)
	return b.MustBuild()
}

// loops says whether pp has a loop, which a cell pins whole.
func loops(pp *physical.Plan) bool {
	return slices.ContainsFunc(pp.Ops, func(op *physical.Operator) bool { return op.Body != nil })
}

// options are the optimizer's options that place pp as x says.
func (x cell) options(pp *physical.Plan) optimizer.Options {
	opts := optimizer.Options{DisableRules: true, Calibration: x.cal}
	if x.place == pinned || loops(pp) {
		opts.FixedPlatform = x.platform
		return opts
	}
	// The java target is fed from relengine, whose direct Table → Batch edge
	// is the cheaper route: a hinted consumer's external input is a batch.
	feeder, fa := javaengine.ID, map[int]engine.PlatformID{}
	if x.platform == javaengine.ID {
		feeder = relengine.ID
	}
	forEachOp(pp, func(op *physical.Operator) {
		fa[op.ID] = x.platform
		switch {
		case x.place == fed && op.Kind() == plan.KindSource:
			fa[op.ID] = feeder
		case x.place == drained && op.Kind() == plan.KindSink:
			fa[op.ID], fa[op.Inputs[0].ID] = feeder, feeder
		}
	})
	opts.ForcedAssignments = fa
	return opts
}

// run runs c in cell x.
func run(t *testing.T, c *bcase, x cell) outcome {
	t.Helper()
	runtime.GOMAXPROCS(x.workers) // check puts the old value back
	pp, err := physical.FromLogical(c.plan("conf-"+c.name, x))
	if err != nil {
		t.Fatal(err)
	}
	if x.form == twin {
		udfTwin(t, pp)
	}
	reg := confRegistry(t)
	ep, err := optimizer.Optimize(pp, reg, x.options(pp))
	if err != nil {
		t.Fatalf("%s %v: optimize: %v", c.name, x, err)
	}
	if x.place == pinned && !loops(pp) && len(ep.Atoms) != len(c.recs) {
		t.Fatalf("%s %v: plan split into %d atoms, want each of %d source(s) in one with its chain", c.name, x, len(ep.Atoms), len(c.recs))
	}
	if c.algo != "" {
		forEachOp(ep.Physical, func(op *physical.Operator) {
			if slices.Contains(physical.Candidates(op), c.algo) {
				op.Algo = c.algo
			}
		})
	}
	res, err := executor.Run(ep, reg, executor.Options{Calibration: x.cal})
	o := outcome{err: err, ep: ep}
	if err == nil {
		o.ans = canonical(t, res.Records, c.ordered)
	}
	if c.check != nil {
		c.check(t, x, o)
	}
	return o
}

// battery is a suite's cells and the reference each is checked against;
// a zero ref means the cases carry their answers.
type battery struct {
	cells []cell
	ref   cell
	n     int // cells checked
}

// newBattery is a battery that logs, once t ends, how many cells it checked.
func newBattery(t *testing.T, ref cell, cells []cell) *battery {
	b := &battery{cells: cells, ref: ref}
	t.Cleanup(func() { t.Logf("%d cells checked", b.n) })
	return b
}

// run checks every case in a subtest of its name.
func (b *battery) run(t *testing.T, cases []bcase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { b.check(t, c) })
	}
}

// check runs c in every cell and compares each answer with the
// reference's — run once for every cell that names it — or with c's.
// Every batch the cells shared must still encode, row by row, to its
// records: nothing downstream of a source may write to its columns.
func (b *battery) check(t *testing.T, c bcase) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	refs, fixed := map[cell]outcome{}, outcome{ans: canonical(t, c.want, c.ordered)}
	for _, x := range b.cells {
		want := fixed
		if b.ref != (cell{}) {
			r := b.ref.of(x)
			if r == x {
				continue // the reference itself
			}
			if _, ok := refs[r]; !ok {
				refs[r] = run(t, &c, r)
			}
			want = refs[r]
		}
		got := run(t, &c, x)
		b.n++
		line, _, _ := strings.Cut(fmt.Sprint(got.err), "\n")
		switch {
		case c.wantErr == "" && got.err != nil:
			t.Errorf("%s %v: %v", c.name, x, got.err)
		case c.wantErr != "" && (got.err == nil || !strings.HasSuffix(line, c.wantErr)):
			t.Errorf("%s %v: failed with %v, want a failure ending %q", c.name, x, got.err, c.wantErr)
		case b.ref != (cell{}) && fmt.Sprint(got.err) != fmt.Sprint(want.err):
			t.Errorf("%s %v: failed with %v, its reference with %v", c.name, x, got.err, want.err)
		case got.ans != want.ans:
			t.Errorf("%s %v diverges from its reference", c.name, x)
		}
	}
	for _, s := range c.batches {
		if canonical(t, s.cols.ToRecords(), true) != canonical(t, s.recs, true) {
			t.Errorf("a source batch of %d rows changed under the plans that read it", len(s.recs))
		}
	}
}

// canonical is recs' individual binary encodings, sorted unless ordered,
// written through one buffer (WriteBinary flushes a *bufio.Writer).
func canonical(t *testing.T, recs []data.Record, ordered bool) string {
	t.Helper()
	var buf bytes.Buffer
	w, ends := bufio.NewWriter(&buf), make([]int, len(recs)+1)
	for i := range recs {
		if _, err := data.WriteBinary(w, recs[i:i+1]); err != nil {
			t.Fatal(err)
		}
		ends[i+1] = buf.Len()
	}
	all, enc := buf.String(), make([]string, len(recs))
	for i := range enc {
		enc[i] = all[ends[i]:ends[i+1]]
	}
	if !ordered {
		sort.Strings(enc)
	}
	return strings.Join(enc, "\x00")
}

// udfTwin swaps every operator of a physical plan that carries a column
// form, loop bodies included, for its twin built from the UDF the form's
// helper generated (ColumnPredicate.FilterFunc, Record.Project,
// ColumnMap.MapFunc, ColumnAggregate.ReduceFunc,
// ColumnGroupAggregate.KeyFunc/GroupFunc, a sort column's FieldKey, a
// batch's records): the same plan as a caller without the helpers would
// have written it, which every platform runs row by row. A twin that
// kept a column form would compare a plan with itself: it fails t.
func udfTwin(t *testing.T, pp *physical.Plan) {
	t.Helper()
	forEachOp(pp, func(op *physical.Operator) {
		lop := rowTwin(op.Logical)
		if _, sorted := lop.ColSort(); sorted || lop.ColSource() != nil || lop.ColPred() != nil || lop.ColProject() != nil ||
			lop.ColMap() != nil || lop.ColAgg() != nil || lop.ColGroup() != nil {
			t.Fatalf("the UDF twin of %s keeps its column form", op.Name())
		}
		op.Logical = lop
	})
}

// rowTwin is lop without its column form, or lop when it has none.
func rowTwin(lop *plan.Operator) *plan.Operator {
	if _, ok := lop.ColSort(); ok { // the FieldKey SortColumn derived
		return plan.NewBuilder("twin").Sort(nil, lop.Key, lop.Desc())
	}
	var fn any
	switch {
	case lop.ColSource() != nil:
		fn = lop.Source()
	case lop.ColPred() != nil:
		fn = lop.Filter()
	case lop.ColProject() != nil, lop.ColMap() != nil:
		fn = lop.Map()
	case lop.ColAgg() != nil:
		fn = lop.Reduce()
	case lop.ColGroup() != nil:
		fn = lop.Group()
	default:
		return lop
	}
	twin := plan.NewSynthetic(lop.Kind(), lop.Name(), fn)
	twin.Key, twin.Schema, twin.CardHint, twin.Selectivity = lop.Key, lop.Schema, lop.CardHint, lop.Selectivity
	return twin
}

// forEachOp walks a physical plan's operators, descending into loop
// bodies (which share the plan's ID space).
func forEachOp(p *physical.Plan, fn func(*physical.Operator)) {
	for _, op := range p.Ops {
		fn(op)
		if op.Body != nil {
			forEachOp(op.Body, fn)
		}
	}
}
