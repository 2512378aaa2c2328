// Vectorized execution operators: a hinted chain (filter, projection,
// column map, global or grouped aggregate) inside an atom is one lazy
// pipeline, run vector-at-a-time. ExecOp on a hinted filter, projection
// or column map computes nothing: it appends a stage to a pipeline value,
// and whatever consumes that value forces it — a hinted aggregate folds
// or groups it, the row code asks for rows, ToChannel for the dataset in
// its source's form. Forcing walks the source in windows of a fixed
// number of rows: transpose only the columns the stages read into leased
// buffers (scratch.go), evaluate each filter into a selection vector the
// later stages read through and each column map into columns that live
// for the window, and hand the window to the consumer, so no full-length
// intermediate is ever built. A window's head — the load and the filters
// ahead of the first column map — may run on a helper goroutine, ahead
// of the consumer; its tail — the column maps, the row UDFs and the
// consumer — runs on the forcing goroutine in window order (morsel.go).
//
// Each stage is the column form of the same declarative spec that
// generated the operator's row UDF (plan.ColumnPredicate / ColProject /
// ColumnAggregate / ColumnGroupAggregate), so it computes what the UDF
// computes — the conformance battery checks byte-identity under the
// canonical encoding against the plan built from the UDFs — or, for a
// column map, the one function its row UDF calls a row at a time
// (plan.ColumnMap). A window without a column form (ragged records, a
// field index outside them) runs through the stages' own row UDFs, which
// stay the semantic ground truth and reproduce the UDF's panic where that
// is the contract.
//
// The typed loops below are data.Compare unboxed — kept and foldOrdered
// hold the order's one statement outside package data — so they match
// the UDFs bit for bit, NaN included.

package javaengine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"rheem/internal/core/algo"
	"rheem/internal/core/batch"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// window is how many rows a forced pipeline handles at a time: one
// int64 column of it is 32 KB and its selection vector 16 KB, so a
// window's working set stays cache-resident from the transposition to
// the fold. It is a constant, not an option: results do not depend on
// it, and no workload has been shown to want another value.
const window = 4096

// atRest is a columnar source's batch (plan.SourceColumns) as a dataset:
// what the source yields when only hinted operators read it. A chain over
// it reads the columns where they stand, and that is all the hint changes:
// what leaves the chain unconsumed is rows, as from any other source, so
// an exit is in the format the optimizer priced and the plan's result is
// cut a window at a time instead of gathered into a batch for the driver
// to transpose.
type atRest struct{ cols *batch.Batch }

// pipeline is a lazy hinted chain: a source — rows an operator of the
// same atom produced, a columnar batch from a channel, or one at rest —
// plus the hinted filters, projections and column maps appended so far.
// A pipeline has one reader (execHinted evaluates a chain that leaves the
// atom, or is read more than once, where it is produced), which either
// appends to it or forces it.
//
// A column is named by an id: c ≥ 0 is column c of the source, ^k < 0 the
// k-th column the chain's column maps compute (win.col).
type pipeline struct {
	ctx    context.Context // the producing ExecOp's: forcing happens where no context is passed
	rows   []data.Record
	cols   *batch.Batch // the source when rows is nil
	stages []stage
	// proj maps the columns of the chain's output so far to column ids;
	// nil is the identity over the source (no projection or map yet).
	proj []int
	// calc counts the computed columns. Past a column map the output is
	// made of them alone: the source's are out of a later stage's reach.
	calc int
	// maxCol is the highest source column a stage names; a rows window
	// no wider than that has no column form and runs through the row
	// UDFs, which panic as the UDF twin does the moment a row reaches the
	// stage. An index outside what an earlier projection kept maps to
	// outside, so that no window is wide enough.
	maxCol int

	asRows bool // cols is at rest: force yields rows, not a batch
	done   bool // forced: out and err are final
	out    any
	err    error
}

// stage is one hinted filter, projection or column map of a pipeline.
type stage struct {
	op  *plan.Operator
	col int   // a filter's field as a column id; the first computed column of a map
	in  []int // a map's inputs as column ids
}

// asPipeline starts a pipeline over ds, or continues the one ds is.
func asPipeline(ctx context.Context, ds any) *pipeline {
	if p, ok := ds.(*pipeline); ok {
		if !p.done {
			return p
		}
		ds = p.out
	}
	p := &pipeline{ctx: ctx, maxCol: -1}
	switch ds := ds.(type) {
	case atRest:
		p.cols, p.asRows = ds.cols, true
	case *batch.Batch:
		if ds.Columnar() {
			p.cols = ds
		} else {
			p.rows = ds.Rows()
		}
	case []data.Record:
		p.rows = ds
	case counted:
		p.rows = ds.recs
	}
	return p
}

const outside = math.MaxInt32

// source maps column j of the chain's output so far to a column id.
func (p *pipeline) source(j int) int {
	switch {
	case j >= 0 && p.proj == nil:
		return j
	case j >= 0 && j < len(p.proj):
		return p.proj[j]
	}
	return outside
}

// push appends a hinted filter, projection or column map.
func (p *pipeline) push(lop *plan.Operator) {
	if p.stages == nil {
		p.stages = make([]stage, 0, 4)
	}
	st := stage{op: lop}
	if pred := lop.ColPred(); pred != nil {
		st.col = p.source(pred.Field)
		p.project(nil, st.col)
	} else if m := lop.ColMap(); m != nil {
		// One allocation: the inputs' ids, then the output's.
		ids := make([]int, len(m.In)+len(m.Out))
		for i, c := range m.In {
			ids[i] = p.source(c.Field)
		}
		st.in, st.col = ids[:len(m.In):len(m.In)], p.calc
		p.project(nil, st.in...)
		p.proj = ids[len(m.In):]
		for j := range p.proj {
			p.proj[j] = ^(p.calc + j)
		}
		p.calc += len(m.Out)
	} else {
		p.project(lop.ColProject())
	}
	p.stages = append(p.stages, st)
}

// project makes the chain's output columns idx of its output so far (nil
// leaves it) and notes the source columns more the chain also names. A
// batch too narrow for those is turned into rows: the row UDFs will run.
func (p *pipeline) project(idx []int, more ...int) {
	if idx != nil {
		proj := make([]int, len(idx))
		for i, j := range idx {
			proj[i] = p.source(j)
		}
		p.proj, more = proj, proj
	}
	for _, c := range more {
		p.maxCol = max(p.maxCol, c)
	}
	if p.cols != nil && p.maxCol >= p.cols.NumCols() {
		p.rows, p.cols = p.cols.ToRecords(), nil
	}
}

// reads lists, in cols' storage, the source columns a forcing loads: the
// filters' fields, the column maps' inputs and, when the consumer reads
// the output's values, the columns the output is made of — every column
// (all) when nothing projected.
func (p *pipeline) reads(cols []int, values bool) (_ []int, all bool) {
	if values && p.proj == nil {
		return cols, true
	}
	for _, st := range p.stages {
		if st.op.ColPred() != nil {
			cols = append(cols, st.col)
		}
		cols = append(cols, st.in...)
	}
	if values {
		cols = append(cols, p.proj...)
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)
	for len(cols) > 0 && cols[0] < 0 { // computed columns: nothing to load
		cols = cols[1:]
	}
	return cols, false
}

// win is one window of a forcing in column form: rows [base, base+n) of
// the source, addressed 0 … n-1. Its columns are views: of the source
// batch, or of store, into which a rows source's are transposed.
type win struct {
	cols  []batch.Column // by source column; only the read set is loaded
	store []batch.Column // by source column: the storage of rows transposed
	reads []int
	all   bool // reads is every column of the window, however wide
	off   int  // validity offset of row 0
	base  int
	n     int
	width int // columns in the chain's output
	maps  mapWindow
}

// mapWindow is what a forcing keeps for its column maps.
type mapWindow struct {
	calc  []batch.Column // the computed columns: rewritten every window, storage kept
	args  []batch.Column // a map's inputs as it is handed them
	dense []batch.Column // the storage of those that are copies
	vals  []data.Value   // the record a map's row form is handed
}

// col returns the column an id names.
func (w *win) col(id int) *batch.Column {
	if id < 0 {
		return &w.maps.calc[^id]
	}
	return &w.cols[id]
}

// out returns column j of the output of p, the pipeline being forced.
func (w *win) out(p *pipeline, j int) *batch.Column { return w.col(p.source(j)) }

// load puts source rows [lo, hi) into w; false means they have no column
// form, which only rows can lack.
func (p *pipeline) load(w *win, lo, hi int) bool {
	width := 0
	if p.cols != nil {
		width, w.off = p.cols.NumCols(), p.cols.Off()+lo
	} else if wd, ok := batch.Width(p.rows[lo:hi]); ok && wd > p.maxCol {
		width, w.off = wd, 0
	} else {
		return false
	}
	if w.base, w.n, w.width = lo, hi-lo, len(p.proj); p.proj == nil {
		w.width = width
	}
	if w.all {
		for c := len(w.reads); c < width; c++ {
			w.reads = append(w.reads, c)
		}
	}
	if need := max(p.maxCol+1, len(w.reads)); len(w.cols) < need {
		w.cols = append(w.cols, make([]batch.Column, need-len(w.cols))...)
		w.store = append(w.store, make([]batch.Column, need-len(w.store))...)
	}
	for _, c := range w.reads {
		if c >= width {
			break // all, over a window narrower than an earlier one
		}
		if p.cols != nil {
			w.cols[c] = p.cols.Col(c).Slice(lo, hi)
		} else {
			w.store[c].Fill(p.rows[lo:hi], c)
			w.cols[c] = w.store[c]
		}
	}
	return true
}

// run forces the pipeline: it walks the source window by window, hands
// columns the window in column form with the rows surviving the filters
// in sel (ascending; read-only, and leased: dead after the call), and a
// window that has no column form to rows after running it through the
// stages' row UDFs. values says whether columns reads the output's values
// or only which rows survived. A forcing of more than one window on more
// than one P is morsel-parallel (morsel.go), in scratch of its own; any
// other runs on this goroutine in s — the caller's, or, when s is nil, one
// run leases.
func (p *pipeline) run(s *scratch, values bool, columns func(w *win, sel []int32) error, rows func([]data.Record) error) error {
	if p.size() > window {
		if workers := runtime.GOMAXPROCS(0); workers > 1 {
			return p.runMorsels(workers, values, columns, rows)
		}
	}
	if s != nil {
		return p.serial(s, values, columns, rows)
	}
	s = scratches.Get()
	err := p.serial(s, values, columns, rows)
	s.release()
	return err
}

// serial is run's loop on one goroutine: window after window, in s.
func (p *pipeline) serial(s *scratch, values bool, columns func(w *win, sel []int32) error, rows func([]data.Record) error) error {
	s.win.prepare(p, values)
	for lo, n := 0, p.size(); lo < n; lo += window {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		if f := atHead.Load(); f != nil {
			(*f)(lo/window, false)
		}
		sel, ok := p.head(s, lo, min(lo+window, n))
		if err := p.tail(s, sel, ok, lo, columns, rows); err != nil {
			return err
		}
	}
	return nil
}

// size is the number of source rows.
func (p *pipeline) size() int {
	if p.cols != nil {
		return p.cols.Len()
	}
	return len(p.rows)
}

// prepare readies w for a forcing of p: the read set, and room for the
// computed columns.
func (w *win) prepare(p *pipeline, values bool) {
	w.reads, w.all = p.reads(w.reads[:0], values)
	if more := p.calc - len(w.maps.calc); more > 0 {
		w.maps.calc = append(w.maps.calc, make([]batch.Column, more)...)
	}
}

// split is the index of the first column map: the stages before it are a
// window's head, those from it on its tail.
func (p *pipeline) split() int {
	for i := range p.stages {
		if p.stages[i].op.ColMap() != nil {
			return i
		}
	}
	return len(p.stages)
}

// head is the part of a window that only runs the engine's own code: it
// loads source rows [lo, hi) into s and runs the filters ahead of the first
// column map. It returns the rows those keep — nil: every row — and false
// for a window that has no column form.
func (p *pipeline) head(s *scratch, lo, hi int) (sel []int32, ok bool) {
	w := &s.win
	if !p.load(w, lo, hi) {
		return nil, false
	}
	for _, st := range p.stages[:p.split()] {
		if st.op.ColPred() != nil {
			sel = selectRows(s.sel[:w.n], sel, w.col(st.col), w.off, st.op.ColPred())
		}
	}
	return sel, true
}

// tail finishes the window at lo whose head left sel and ok in s: the
// stages from the first column map on and the consumer, or, for a window
// without a column form, the stages' row UDFs and the rows consumer. It
// runs on the forcing goroutine, a window at a time in window order, so a
// user function and a consumer are never called concurrently.
func (p *pipeline) tail(s *scratch, sel []int32, ok bool, lo int, columns func(w *win, sel []int32) error, rows func([]data.Record) error) error {
	if !ok {
		recs, err := p.rowWindow(p.rows[lo:min(lo+window, len(p.rows))])
		if err == nil {
			err = rows(recs)
		}
		return err
	}
	w := &s.win
	live := w.n // when sel is nil: every row, of which there are live
	for i := p.split(); i < len(p.stages); i++ {
		switch st := &p.stages[i]; {
		case st.op.ColPred() != nil:
			sel = selectRows(s.sel[:live], sel, w.col(st.col), w.off, st.op.ColPred())
		case st.op.ColMap() != nil:
			// The map's output is dense: the rows that reached it,
			// renumbered, and every one of them selected.
			var err error
			if live, err = w.mapColumns(st, sel, live); err != nil {
				return err
			}
			sel = nil
		}
	}
	if sel == nil {
		sel = everyRow[:live]
	}
	return columns(w, sel)
}

// mapColumns runs a column map over the live rows of the window — those
// in sel, or all of them — into its computed columns, and returns how
// many there are. The function sees its inputs dense and in order: views
// when every row is live, otherwise copies of the selected ones, so a row
// a filter dropped never reaches it. A window in which an input is not
// the kind the map declares, or holds a null in a live row, goes through
// the map's row UDF a live row at a time, which is where the error for
// such a value comes from.
func (w *win) mapColumns(st *stage, sel []int32, live int) (int, error) {
	m, mw := st.op.ColMap(), &w.maps
	if sel != nil {
		live = len(sel)
	}
	out := mw.calc[st.col : st.col+len(m.Out)]
	for j, k := range m.Out {
		out[j].Reset(k, live)
	}
	if live == 0 {
		return 0, nil
	}
	if len(mw.args) < len(st.in) {
		mw.args, mw.dense = make([]batch.Column, len(st.in)), make([]batch.Column, len(st.in))
	}
	args, typed := mw.args[:len(st.in)], true
	for a, id := range st.in {
		src := w.col(id)
		if typed = src.Kind == m.In[a].Kind && allValid(src.Valid, w.off, sel, live); !typed {
			break
		}
		if sel == nil {
			args[a] = src.Slice(0, live)
			args[a].Valid = nil
			continue
		}
		d := &mw.dense[a]
		d.Reset(src.Kind, 0)
		takeRows(d, src, sel)
		args[a] = *d
	}
	if typed {
		return live, m.Apply(live, args, out)
	}
	for _, c := range m.In {
		if c.Field >= len(mw.vals) {
			mw.vals = append(mw.vals, make([]data.Value, c.Field+1-len(mw.vals))...)
		}
	}
	fn := st.op.Map()
	for k := 0; k < live; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		for a, id := range st.in {
			mw.vals[m.In[a].Field] = w.col(id).Value(w.off, i)
		}
		rec, err := fn(data.NewRecord(mw.vals...))
		if err != nil {
			return 0, err
		}
		for j := range out {
			out[j].Put(k, rec.Field(j))
		}
	}
	return live, nil
}

// everyRow is the selection of every row of a window, shared and
// read-only: everyRow[:n] selects an n-row window's.
var everyRow = func() (sel [window]int32) {
	ascending(sel[:])
	return sel
}()

// ascending makes sel the selection of its first len(sel) rows.
func ascending(sel []int32) {
	for i := range sel {
		sel[i] = int32(i)
	}
}

// rowWindow runs a window of source rows through the stages' row UDFs,
// one stage over the whole window at a time as the row code would.
func (p *pipeline) rowWindow(recs []data.Record) (_ []data.Record, err error) {
	recs = slices.Clone(recs)
	for _, st := range p.stages {
		if st.op.ColPred() != nil {
			recs, err = algo.FilterRows(recs[:0], recs, st.op.Filter())
		} else { // a projection or a column map: either way the operator's row UDF
			recs, err = algo.MapRows(recs[:0], recs, st.op.Map())
		}
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// force evaluates the pipeline into a dataset of its source's form: rows
// from rows — the original records when nothing projected, as the row
// filter returns them — and from columns at rest; a batch from a channel's
// batch, the source itself or a zero-copy projection of it when every row
// survived. The result is memoised.
func (p *pipeline) force() (any, error) {
	if !p.done {
		if p.cols != nil && !p.asRows {
			p.out, p.err = p.gather()
		} else {
			p.out, p.err = p.records()
		}
		p.done = true
	}
	return p.out, p.err
}

// records forces the pipeline into rows. Projected rows, and rows out of
// a batch, are cut from one []data.Value slab per window; a rows source's
// values come from its rows, so only the filters' columns and the column
// maps' inputs are transposed.
func (p *pipeline) records() ([]data.Record, error) {
	var out []data.Record
	original := p.cols == nil && p.proj == nil
	err := p.run(nil, p.cols != nil, func(w *win, sel []int32) error {
		if out == nil {
			out = make([]data.Record, 0, len(sel)) // exact when there is one window
		}
		if original {
			for _, i := range sel {
				out = append(out, p.rows[w.base+int(i)])
			}
			return nil
		}
		slab := make([]data.Value, len(sel)*w.width)
		for k, i := range sel {
			row := slab[k*w.width : (k+1)*w.width : (k+1)*w.width]
			for j := range row {
				if id := p.source(j); id >= 0 && p.cols == nil {
					row[j] = p.rows[w.base+int(i)].Field(id)
				} else {
					row[j] = w.col(id).Value(w.off, int(i))
				}
			}
			out = append(out, data.NewRecord(row...))
		}
		return nil
	}, func(recs []data.Record) error {
		out = append(out, recs...)
		return nil
	})
	return out, err
}

// gather forces a pipeline over a columnar batch into a batch, appending
// each window's survivors to the output columns. Nothing is copied while
// every row survives and the output is the source's own columns; computed
// columns live for their window and are copied from the first one on.
func (p *pipeline) gather() (*batch.Batch, error) {
	var cols []batch.Column
	n := 0
	err := p.run(nil, true, func(w *win, sel []int32) error {
		if cols == nil {
			if len(sel) == w.n && p.calc == 0 {
				return nil
			}
			cols = make([]batch.Column, w.width)
			if lo, hi := w.base, w.base+w.n; lo > 0 {
				// The first row dropped: catch up on the windows that passed
				// whole. They are views, so w takes each and then this one again.
				for at := 0; at < lo; at += window {
					p.load(w, at, at+window)
					n = p.appendRows(cols, w, everyRow[:window], n)
				}
				p.load(w, lo, hi)
			}
		}
		n = p.appendRows(cols, w, sel, n)
		return nil
	}, nil)
	switch {
	case err != nil:
		return nil, err
	case cols == nil && p.proj == nil:
		return p.cols, nil
	case cols == nil && p.calc == 0:
		return p.cols.Project(p.proj...), nil
	}
	return batch.New(n, cols) // no column at all when a map met no row
}

// appendRows appends the selected rows to the output columns, which hold
// n rows, and returns the new row count. Validity bitmaps are rebuilt
// densely (offset zero), sized for the whole source.
func (p *pipeline) appendRows(cols []batch.Column, w *win, sel []int32, n int) int {
	for j := range cols {
		src, dst := w.out(p, j), &cols[j]
		dst.Kind = src.Kind
		if src.Kind != batch.ColAny && src.Valid != nil {
			if dst.Valid == nil {
				dst.Valid = batch.NewBitset(p.cols.Len())
			}
			for k, i := range sel {
				if src.Valid.Get(w.off + int(i)) {
					dst.Valid.Set(n + k)
				}
			}
		}
		takeRows(dst, src, sel)
	}
	return n + len(sel)
}

// takeRows appends the selected rows of src's storage to dst's.
func takeRows(dst, src *batch.Column, sel []int32) {
	switch src.Kind {
	case batch.ColInt64:
		dst.Int64s = take(dst.Int64s, src.Int64s, sel)
	case batch.ColFloat64:
		dst.Float64s = take(dst.Float64s, src.Float64s, sel)
	case batch.ColString:
		dst.Strings = take(dst.Strings, src.Strings, sel)
	case batch.ColBool:
		dst.Bools = take(dst.Bools, src.Bools, sel)
	default:
		dst.Any = take(dst.Any, src.Any, sel)
	}
}

// allValid reports whether the live rows of a window — those in sel, or
// the first live — are all set in a column's validity bitmap at offset off.
func allValid(valid *batch.Bitset, off int, sel []int32, live int) bool {
	if valid == nil {
		return true
	}
	if sel == nil {
		return valid.CountRange(off, off+live) == live
	}
	for _, i := range sel {
		if !valid.Get(off + int(i)) {
			return false
		}
	}
	return true
}

// take appends the selected elements of src to dst, in selection order.
func take[T any](dst, src []T, sel []int32) []T {
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// columnReaders reports whether a source's readers all take columns: it
// is not an exit of the atom, and every operator of the atom reading it is
// hinted. Then nobody needs its rows made.
func (d *datasetOps) columnReaders(src *physical.Operator) bool {
	if d.atom == nil || slices.Contains(d.atom.Exits, src) {
		return false
	}
	for _, c := range d.atom.Ops {
		if slices.Contains(c.Inputs, src) && !hinted(c.Logical) {
			return false
		}
	}
	return true
}

// hinted reports whether the operator carries the column hint of its
// kind.
func hinted(lop *plan.Operator) bool {
	if lop == nil {
		return false
	}
	switch lop.Kind() {
	case plan.KindFilter:
		return lop.ColPred() != nil
	case plan.KindMap:
		return lop.ColProject() != nil || lop.ColMap() != nil
	case plan.KindReduce:
		return lop.ColAgg() != nil
	case plan.KindGroupBy:
		return lop.ColGroup() != nil
	}
	return false
}

// execHinted handles an operator that carries a column hint: a filter,
// projection or column map becomes a stage of its input's pipeline, an
// aggregate folds it, a grouped aggregate groups it. handled=false sends an
// un-hinted operator to the row code.
func (d *datasetOps) execHinted(ctx context.Context, op *physical.Operator, inputs []any) (out any, handled bool, err error) {
	if !hinted(op.Logical) {
		return nil, false, nil
	}
	p := asPipeline(ctx, inputs[0])
	if agg := op.Logical.ColAgg(); agg != nil {
		out, err = p.fold(agg.Fns)
		return out, true, err
	}
	if op.Logical.ColGroup() != nil {
		out, err = p.group(op.Logical, op.Algo == physical.SortGroupBy)
		return out, true, err
	}
	if p.stages == nil && d.atom != nil {
		// Room for the longest chain the atom holds: a pipeline never
		// grows its stage list, whatever the atom's width.
		p.stages = make([]stage, 0, len(d.atom.Ops))
	}
	p.push(op.Logical)
	if d.atom != nil && d.atom.Reader(op) == nil {
		// An exit, or several readers: evaluate the chain here, once, and
		// hand each of them the result.
		out, err = p.force()
		return out, true, err
	}
	return p, true, nil
}

// selectRows evaluates the predicate over the rows of col listed in in —
// nil lists every row, as many as dst is long — and returns the
// survivors, in order, in dst's storage (in place when the two are one). Typed columns whose kind matches the operand
// take a tight unboxed loop; everything else — a NaN operand too, which
// the loop's two primitive orderings cannot place — goes through the
// generic value path, which applies the exact row-UDF semantics
// (plan.ColumnPredicate.Match).
func selectRows(dst, in []int32, col *batch.Column, off int, p *plan.ColumnPredicate) []int32 {
	switch {
	case col.Kind == batch.ColInt64 && p.Operand.Kind() == data.KindInt:
		return selectOrdered(dst, in, col.Int64s, p.Operand.Int(), p.Op, col.Valid, off)
	case col.Kind == batch.ColFloat64 && p.Operand.Kind() == data.KindFloat && !math.IsNaN(p.Operand.Float()):
		return selectOrdered(dst, in, col.Float64s, p.Operand.Float(), p.Op, col.Valid, off)
	case col.Kind == batch.ColString && p.Operand.Kind() == data.KindString:
		return selectOrdered(dst, in, col.Strings, p.Operand.Str(), p.Op, col.Valid, off)
	}
	if in == nil {
		in = everyRow[:len(dst)]
	}
	n := 0
	for _, i := range in {
		if p.Match(col.Value(off, int(i))) {
			dst[n] = i
			n++
		}
	}
	return dst[:n]
}

// selectOrdered is the typed selection loop: nulls never match. It
// stores every candidate and advances past the ones that match, so a
// predicate that keeps half the rows at random costs no mispredicted
// branches. keep tabulates the comparison by how a value stands to the
// operand k under data.Compare — less, equal, greater; k is no NaN.
func selectOrdered[T cmp.Ordered](dst, in []int32, vals []T, k T, op plan.CompareOp, valid *batch.Bitset, off int) []int32 {
	zero := data.Int(0)
	keep := [3]int{b2i(op.Eval(data.Int(-1), zero)), b2i(op.Eval(zero, zero)), b2i(op.Eval(data.Int(1), zero))}
	n := 0
	if in == nil { // every row: the values in order, no index to load
		for i, v := range vals[:len(dst)] {
			dst[n] = int32(i)
			n += kept(&keep, v, k, valid, off+i)
		}
		return dst[:n]
	}
	for _, i := range in {
		dst[n] = i
		n += kept(&keep, vals[i], k, valid, off+int(i))
	}
	return dst[:n]
}

// kept is 1 for a non-null value that stands to k as the operator wants:
// data.Compare(v, k) for a k that is no NaN, as a table index — a NaN v
// (the one T value with v != v) is less — and so without a branch to
// mispredict, which cmp.Compare here would be.
func kept[T cmp.Ordered](keep *[3]int, v, k T, valid *batch.Bitset, bit int) int {
	if valid != nil && !valid.Get(bit) {
		return 0
	}
	return keep[1+b2i(v > k)-b2i(v < k || v != v)]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// folder is a hinted aggregate's running state, mirroring algo.Reduce
// over the UDF twin exactly: no row yields no output, a single row comes
// back unfolded, and every later row is folded into the accumulator left
// to right. There is one accumulator for the whole input — each window
// seeds its loops with it, never folds on its own to be combined later —
// which is what keeps float sums and AggFirst bit-identical across
// window boundaries.
type folder struct {
	fns  []plan.AggFn
	acc  []data.Value // the first surviving row, then the fold
	n    int          // surviving rows so far
	slow []int        // scratch: the columns of a window no typed loop covers
}

// fold forces the pipeline through the aggregate.
func (p *pipeline) fold(fns []plan.AggFn) ([]data.Record, error) {
	f := folder{fns: fns}
	err := p.run(nil, true, func(w *win, sel []int32) error {
		return f.columns(p, w, sel)
	}, func(recs []data.Record) error {
		for _, r := range recs {
			if err := f.add(r.Fields()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || f.n == 0 {
		return nil, err
	}
	return []data.Record{data.NewRecord(f.acc...)}, nil
}

// arity is the shape check (and message) the row fold applies per pair.
func (f *folder) arity(width int) error {
	if len(f.acc) != len(f.fns) || width != len(f.fns) {
		return fmt.Errorf("algo: reduce: plan: column aggregate over %d fields folding %d/%d-field records",
			len(f.fns), len(f.acc), width)
	}
	return nil
}

// add folds one row under AggFn.Fold — the row semantics verbatim,
// including the error on summing nulls or mixed kinds.
func (f *folder) add(row []data.Value) error {
	f.n++
	if f.n == 1 {
		f.acc = slices.Clone(row)
		return nil
	}
	if err := f.arity(len(row)); err != nil {
		return err
	}
	for j, fn := range f.fns {
		v, err := fn.Fold(f.acc[j], row[j])
		if err != nil {
			return fmt.Errorf("algo: reduce: %w", err)
		}
		f.acc[j] = v
	}
	return nil
}

// columns folds the selected rows of a window. A typed all-valid column
// whose kind is the accumulator's takes an unboxed loop seeded with the
// accumulator; the columns left over fold their materialised values row
// by row, so the first error is the one the row fold would hit (the
// typed loops cannot fail).
func (f *folder) columns(p *pipeline, w *win, sel []int32) error {
	if len(sel) == 0 {
		return nil
	}
	if f.n == 0 {
		f.n, f.acc = 1, make([]data.Value, w.width)
		for j := range f.acc {
			f.acc[j] = w.out(p, j).Value(w.off, int(sel[0]))
		}
		if sel = sel[1:]; len(sel) == 0 {
			return nil
		}
	}
	if err := f.arity(w.width); err != nil {
		return err
	}
	f.slow = f.slow[:0]
	for j, fn := range f.fns {
		col, acc := w.out(p, j), &f.acc[j]
		switch {
		case fn == plan.AggFirst:
		case col.Valid != nil || fn > plan.AggMax:
			f.slow = append(f.slow, j)
		case col.Kind == batch.ColInt64 && acc.Kind() == data.KindInt:
			*acc = data.Int(foldOrdered(acc.Int(), col.Int64s, sel, fn))
		case col.Kind == batch.ColFloat64 && acc.Kind() == data.KindFloat:
			*acc = data.Float(foldOrdered(acc.Float(), col.Float64s, sel, fn))
		case col.Kind == batch.ColString && acc.Kind() == data.KindString && fn != plan.AggSum:
			*acc = data.Str(foldOrdered(acc.Str(), col.Strings, sel, fn))
		default:
			f.slow = append(f.slow, j)
		}
	}
	f.n += len(sel)
	for _, i := range sel {
		for _, j := range f.slow {
			v, err := f.fns[j].Fold(f.acc[j], w.out(p, j).Value(w.off, int(i)))
			if err != nil {
				return fmt.Errorf("algo: reduce: %w", err)
			}
			f.acc[j] = v
		}
	}
	return nil
}

// foldOrdered is the typed fold of the selected values into acc, left
// to right like algo.Reduce so even float sums reproduce. cmp.Less is
// data.Compare < 0 on the payload, so MIN and MAX match AggFn.Fold
// exactly.
func foldOrdered[T cmp.Ordered](acc T, vals []T, sel []int32, fn plan.AggFn) T {
	switch fn {
	case plan.AggSum:
		for _, i := range sel {
			acc += vals[i]
		}
	case plan.AggMin:
		for _, i := range sel {
			if v := vals[i]; cmp.Less(v, acc) {
				acc = v
			}
		}
	case plan.AggMax:
		for _, i := range sel {
			if v := vals[i]; cmp.Less(acc, v) {
				acc = v
			}
		}
	}
	return acc
}
