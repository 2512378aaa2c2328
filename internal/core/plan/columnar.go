// Declarative column forms of the hot-path UDFs. A closure over
// data.Record cannot be vectorized, so operators that want a columnar
// kernel carry a declarative specification alongside the UDF. The
// builder helpers below derive BOTH from one spec — the hint and the
// closure are two renderings of the same predicate/projection/fold,
// so the batch path and the row path cannot disagree. What no
// declaration expresses, a computed column, has the same rule one level
// down: ColumnMap is a UDF written once over typed column windows, and
// the operator's row UDF is that function called on a one-row window.

package plan

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"rheem/internal/core/batch"
	"rheem/internal/data"
)

// ColumnPredicate is the declarative filter "Field ⟨Op⟩ Operand".
type ColumnPredicate struct {
	Field   int
	Op      CompareOp
	Operand data.Value
}

// Match reports whether v satisfies the predicate. A null v never
// matches (the SQL convention), regardless of the operator.
func (p *ColumnPredicate) Match(v data.Value) bool { return p.Op.Holds(v, p.Operand) }

// FilterFunc renders the predicate as the row-path UDF.
func (p *ColumnPredicate) FilterFunc() FilterFunc {
	return func(r data.Record) (bool, error) { return p.Match(r.Field(p.Field)), nil }
}

// AggFn enumerates the per-field fold functions of a ColumnAggregate.
type AggFn uint8

// Per-field folds. AggFirst keeps the left (accumulated) value — the
// shape key-carrying fields use.
const (
	AggFirst AggFn = iota
	AggSum
	AggMin
	AggMax
)

// String returns the fold's name.
func (f AggFn) String() string {
	switch f {
	case AggFirst:
		return "first"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFn(%d)", uint8(f))
	}
}

// ColumnAggregate is the declarative global reduce: field i of the
// result is the Fns[i]-fold of field i across all input records, in
// input order (so even float sums are reproducible).
type ColumnAggregate struct {
	Fns []AggFn
}

// SumValues adds two values of the same numeric kind; mixing kinds,
// nulls, or non-numerics is an error rather than a silent widening.
func SumValues(a, b data.Value) (data.Value, error) {
	switch {
	case a.Kind() == data.KindInt && b.Kind() == data.KindInt:
		return data.Int(a.Int() + b.Int()), nil
	case a.Kind() == data.KindFloat && b.Kind() == data.KindFloat:
		return data.Float(a.Float() + b.Float()), nil
	default:
		return data.Null(), fmt.Errorf("plan: cannot sum %s and %s values", a.Kind(), b.Kind())
	}
}

// Fold combines one field pair under the fold function.
func (f AggFn) Fold(a, b data.Value) (data.Value, error) {
	switch f {
	case AggFirst:
		return a, nil
	case AggSum:
		return SumValues(a, b)
	case AggMin:
		if data.Compare(b, a) < 0 {
			return b, nil
		}
		return a, nil
	case AggMax:
		if data.Compare(b, a) > 0 {
			return b, nil
		}
		return a, nil
	default:
		return data.Null(), fmt.Errorf("plan: unknown aggregate fold %s", f)
	}
}

// ReduceFunc renders the aggregate as the row-path pairwise fold.
func (c *ColumnAggregate) ReduceFunc() ReduceFunc {
	return func(a, b data.Record) (data.Record, error) {
		if a.Len() != len(c.Fns) || b.Len() != len(c.Fns) {
			return data.Record{}, fmt.Errorf("plan: column aggregate over %d fields folding %d/%d-field records",
				len(c.Fns), a.Len(), b.Len())
		}
		out := make([]data.Value, len(c.Fns))
		for i, fn := range c.Fns {
			v, err := fn.Fold(a.Field(i), b.Field(i))
			if err != nil {
				return data.Record{}, err
			}
			out[i] = v
		}
		return data.NewRecord(out...), nil
	}
}

// columnRows is the row form of a columnar source: made when a row reader
// first asks and kept, because a source in a loop body or under a retried
// atom is read again.
type columnRows struct {
	cols *batch.Batch
	once sync.Once
	rows []data.Record
}

func (s *columnRows) source() ([]data.Record, error) {
	s.once.Do(func() { s.rows = s.cols.ToRecords() })
	return s.rows, nil
}

// SourceColumns adds a source whose records are at rest in column form,
// carrying the batch as a vectorization hint beside the SourceFunc that
// reads it out as rows (at most once, and only if a row reader asks).
// The batch is shared, not copied: by every job a catalog builds a plan
// for and by every job of one built-in service spec, whose input is
// generated once per spec, concurrently — so nothing downstream may write
// to its columns (TestColumnarSourceMatchesRowSource holds every platform
// to that). A row-backed batch (ragged records) has no column form and
// carries no hint.
func (b *Builder) SourceColumns(name string, cols *batch.Batch) *Operator {
	o := b.Source(name, (&columnRows{cols: cols}).source)
	o.CardHint = int64(cols.Len())
	if cols.Columnar() {
		o.ColSource = cols
	}
	return o
}

// FilterWhere adds a Filter carrying the declarative column predicate
// "field ⟨op⟩ operand" alongside its generated UDF.
func (b *Builder) FilterWhere(in *Operator, field int, op CompareOp, operand data.Value) *Operator {
	p := &ColumnPredicate{Field: field, Op: op, Operand: operand}
	o := b.Filter(in, p.FilterFunc())
	o.ColPred = p
	return o
}

// ProjectCols adds a Map that projects the selected fields in order,
// carrying the column list as a vectorization hint.
func (b *Builder) ProjectCols(in *Operator, idx ...int) *Operator {
	cols := append([]int(nil), idx...)
	o := b.Map(in, func(r data.Record) (data.Record, error) {
		return r.Project(cols...), nil
	})
	o.ColProject = cols
	return o
}

// ColumnIn is one input of a ColumnMap: a field of the input records and
// the kind every value of it has.
type ColumnIn struct {
	Field int
	Kind  batch.ColKind
}

// ColumnMap is the batch-at-a-time form of a Map UDF, and the only
// definition the operator has. Fn computes the output records of n input
// records, column-wise: in[i] holds field In[i].Field of them as n rows
// of kind In[i].Kind, out[j] is n rows of kind Out[j] for it to write —
// every one — and the output record is the out columns, in order. All are
// typed (no ColAny) and dense (no validity bitmap: a null is not of the
// declared kind). Row k of out must depend on row k of in alone, because
// how the input is cut into windows is the platform's choice — 4 096 rows
// where hints are honoured, one everywhere else — and Fn must not keep
// either slice: the storage behind them is leased, reused by the next
// window and recycled across jobs (javaengine hands out zeroed; the row
// form's holds what its last record left). in is read-only: over a columnar
// source (SourceColumns) it is a view of storage every concurrent job shares.
type ColumnMap struct {
	In  []ColumnIn
	Out []batch.ColKind
	Fn  func(n int, in, out []batch.Column) error

	op *Operator // names the operator in what Fn fails with
}

// Apply runs Fn over one window, naming the operator in the error it
// returns or the panic it raises: where a platform evaluates lazily, the
// operator running when either surfaces is the one that forced the work.
func (m *ColumnMap) Apply(n int, in, out []batch.Column) error {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Errorf("%s: %v", m.op.Name(), r))
		}
	}()
	if err := m.Fn(n, in, out); err != nil {
		return fmt.Errorf("%s: %w", m.op.Name(), err)
	}
	return nil
}

// MapFunc renders the column function as the row-path UDF: the record's
// declared fields go into a pooled one-row window, Fn runs over it, and
// the output record is read back — one allocation, the record's. A record
// without a declared field, or holding a null or a value of another kind
// in one, is an error naming the operator and the field.
func (m *ColumnMap) MapFunc() MapFunc {
	type window struct{ in, out []batch.Column }
	// A sync.Pool, not an engine.FreeList (which plan, imported by engine,
	// cannot use): the UDF runs per record on every helper of a chain at
	// once, which a pool's per-P caches serve without a lock, and the
	// windows of a closure nobody calls any more are the collector's.
	pool := sync.Pool{New: func() any {
		w := &window{in: make([]batch.Column, len(m.In)), out: make([]batch.Column, len(m.Out))}
		for i, c := range m.In {
			w.in[i].Reset(c.Kind, 1)
		}
		for j, k := range m.Out {
			w.out[j].Reset(k, 1)
		}
		return w
	}}
	return func(r data.Record) (data.Record, error) {
		w := pool.Get().(*window)
		defer pool.Put(w)
		for i, c := range m.In {
			if c.Field >= r.Len() {
				return data.Record{}, fmt.Errorf("%s: reads field %d of a %d-field record", m.op.Name(), c.Field, r.Len())
			}
			if v := r.Field(c.Field); !w.in[i].Put(0, v) {
				return data.Record{}, fmt.Errorf("%s: field %d holds a %s value, declared %s", m.op.Name(), c.Field, v.Kind(), c.Kind)
			}
		}
		if err := m.Apply(1, w.in, w.out); err != nil {
			return data.Record{}, err
		}
		vals := make([]data.Value, len(w.out))
		for j := range vals {
			vals[j] = w.out[j].Value(0, 0)
		}
		return data.NewRecord(vals...), nil
	}
}

// MapColumns adds a Map defined by a column function: the batch form as
// a vectorization hint, beside the row UDF derived from it.
func (b *Builder) MapColumns(in *Operator, spec ColumnMap) *Operator {
	m := &ColumnMap{In: append([]ColumnIn(nil), spec.In...), Out: append([]batch.ColKind(nil), spec.Out...), Fn: spec.Fn}
	o := b.Map(in, m.MapFunc())
	m.op, o.ColMap = o, m
	if m.Fn == nil || len(m.Out) == 0 {
		b.fail(fmt.Errorf("plan: %s requires a column function and at least one output column", o.Name()))
	}
	for _, c := range m.In {
		if c.Field < 0 || c.Kind >= batch.ColAny {
			b.fail(fmt.Errorf("plan: %s reads field %d as %s: want a field of the record and a typed kind", o.Name(), c.Field, c.Kind))
		}
	}
	for _, k := range m.Out {
		if k >= batch.ColAny {
			b.fail(fmt.Errorf("plan: %s writes a %s column: want a typed kind", o.Name(), k))
		}
	}
	return o
}

// AggregateCols adds a global Reduce folding field i of the input with
// fns[i], carrying the fold list as a vectorization hint.
func (b *Builder) AggregateCols(in *Operator, fns ...AggFn) *Operator {
	agg := &ColumnAggregate{Fns: append([]AggFn(nil), fns...)}
	o := b.Reduce(in, agg.ReduceFunc())
	o.ColAgg = agg
	return o
}

// GroupFn enumerates a ColumnGroupAggregate's folds. They are SQL's: all
// but GroupCountAll skip nulls, and sums are float64 whatever they read.
type GroupFn uint8

// The grouped folds.
const (
	GroupKey      GroupFn = iota // Field as the group's first row has it — what a key column shows
	GroupCountAll                // COUNT(*): the group's rows
	GroupCount                   // COUNT(col): the rows whose Field is not null
	GroupSum                     // SUM(col): 0 when every Field is null
	GroupAvg                     // AVG(col): 0 when every Field is null
	GroupMin                     // MIN(col) under data.Compare: null when every Field is null
	GroupMax                     // MAX(col)
)

// GroupCol is one output column: Fn over input field Field (GroupCountAll reads none).
type GroupCol struct {
	Fn    GroupFn
	Field int
}

// ColumnGroupAggregate is the declarative grouped aggregate: rows group
// by the values of the Keys fields — told apart by data.Equal, so -0
// groups with +0 and shows whichever came first — and each group yields
// one record, column i of it Out[i] folded over the group's rows in input
// order. No Keys is the global aggregate: one group, none without a row.
type ColumnGroupAggregate struct {
	Keys []int
	Out  []GroupCol
}

// AppendKey appends v to the composite a multi-column key is compared
// by: a kind byte and a self-delimiting payload, so composites are equal
// exactly when built from data.Equal values (-0 encodes as +0, every
// NaN as one NaN).
func AppendKey(dst []byte, v data.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case data.KindBool:
		return append(dst, v.String()[0]) // 't' or 'f'
	case data.KindInt:
		return binary.BigEndian.AppendUint64(dst, uint64(v.Int()))
	case data.KindFloat:
		return binary.BigEndian.AppendUint64(dst, keyBits(v.Float()))
	case data.KindString:
		return append(binary.AppendUvarint(dst, uint64(len(v.Str()))), v.Str()...)
	case data.KindVector:
		dst = binary.AppendUvarint(dst, uint64(len(v.Vec())))
		for _, f := range v.Vec() {
			dst = binary.BigEndian.AppendUint64(dst, keyBits(f))
		}
	}
	return dst
}

// keyBits is f's bits with the floats data.Equal equates made one.
func keyBits(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f + 0)
}

// KeyFunc renders the key as the row-path UDF: a constant for no key
// column, the field itself for one, the AppendKey composite for several.
func (g *ColumnGroupAggregate) KeyFunc() KeyFunc {
	switch len(g.Keys) {
	case 0:
		return ConstKey()
	case 1:
		return FieldKey(g.Keys[0])
	}
	return func(r data.Record) (data.Value, error) {
		buf := make([]byte, 0, 16*len(g.Keys))
		for _, k := range g.Keys {
			buf = AppendKey(buf, r.Field(k))
		}
		return data.Str(string(buf)), nil
	}
}

// GroupFunc renders the folds as the row-path UDF over a materialised group.
func (g *ColumnGroupAggregate) GroupFunc() GroupFunc {
	return func(_ data.Value, group []data.Record) ([]data.Record, error) {
		vals := make([]data.Value, len(g.Out))
		for i, oc := range g.Out {
			var s GroupState
			for _, r := range group {
				oc.Fn.Add(&s, oc.Arg(r))
			}
			vals[i] = oc.Fn.Result(s)
		}
		return []data.Record{data.NewRecord(vals...)}, nil
	}
}

// Arg is the value the column's fold reads from r.
func (c GroupCol) Arg(r data.Record) (v data.Value) {
	if c.Fn != GroupCountAll {
		v = r.Field(c.Field)
	}
	return v
}

// GroupState is one output column's running fold over one group.
type GroupState struct {
	N    int64
	Sum  float64
	Best data.Value
}

// Add folds the next row's value into s: the one definition of the folds,
// for the derived GroupFunc and for a vectorized kernel's accumulators.
func (f GroupFn) Add(s *GroupState, v data.Value) {
	switch {
	case f == GroupKey:
		if s.N == 0 {
			s.Best = v
		}
	case f == GroupCountAll:
	case v.IsNull():
		return
	case f == GroupCount:
	case f == GroupSum || f == GroupAvg:
		s.Sum += v.Float()
	case s.N == 0, f == GroupMin && data.Compare(v, s.Best) < 0, f == GroupMax && data.Compare(v, s.Best) > 0:
		s.Best = v
	}
	s.N++
}

// Result is the fold's output value.
func (f GroupFn) Result(s GroupState) data.Value {
	switch f {
	case GroupCountAll, GroupCount:
		return data.Int(s.N)
	case GroupAvg:
		if s.N > 0 {
			s.Sum /= float64(s.N)
		}
		fallthrough
	case GroupSum:
		return data.Float(s.Sum)
	}
	return s.Best
}

// GroupAggregate adds a GroupBy computing the grouped aggregate, carrying
// the spec as a vectorization hint beside the UDFs derived from it.
func (b *Builder) GroupAggregate(in *Operator, keys []int, out ...GroupCol) *Operator {
	g := &ColumnGroupAggregate{Keys: append([]int(nil), keys...), Out: append([]GroupCol(nil), out...)}
	o := b.GroupBy(in, g.KeyFunc(), g.GroupFunc())
	o.ColGroup = g
	return o
}
