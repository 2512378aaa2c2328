// Package plan implements RHEEM's application layer: logical operators
// and logical plans.
//
// A logical operator is "an abstract UDF that acts as an
// application-specific unit of data processing" (paper §3.1) — a
// template whose processing logic the user supplies as a function over
// data quanta. Logical operators say nothing about algorithms (that is
// the physical layer's job) or about platforms (the execution layer's
// job); they only fix the dataflow shape: what flows in, what flows
// out, and which user function bridges the two.
//
// A Plan is a DAG of logical operators with exactly one sink. Plans are
// constructed through Builder, which enforces the structural invariants
// at construction time, and re-validated by Plan.Validate before
// optimization.
package plan

import (
	"fmt"
	"strconv"
	"unsafe"

	"rheem/internal/core/batch"
	"rheem/internal/data"
)

// OpKind enumerates the dataflow shapes of the logical operator pool.
type OpKind uint8

// The logical operator kinds. The set follows the paper's examples
// (Map, GroupBy, Loop, ...) completed with the standard second-order
// functions a UDF-centric dataflow system needs.
const (
	KindSource      OpKind = iota // produce records from a SourceFunc
	KindMap                       // one record in, one record out
	KindFlatMap                   // one record in, zero or more out
	KindFilter                    // keep records satisfying a predicate
	KindGroupBy                   // group by key, apply a per-group UDF
	KindReduceByKey               // group by key, fold each group pairwise
	KindReduce                    // fold the whole input to a single record
	KindSort                      // order by a key function
	KindDistinct                  // remove duplicate records
	KindUnion                     // concatenate two inputs
	KindJoin                      // equi-join on two key functions
	KindThetaJoin                 // join on an arbitrary predicate
	KindCartesian                 // cross product of two inputs
	KindCount                     // count records, emit one (count) record
	KindSample                    // keep the first N records
	KindRepeat                    // run a body subplan a fixed number of times
	KindDoWhile                   // run a body subplan until a condition holds
	KindLoopInput                 // placeholder source inside a loop body
	KindSink                      // terminal collection point of a plan
)

var kindNames = map[OpKind]string{
	KindSource: "Source", KindMap: "Map", KindFlatMap: "FlatMap",
	KindFilter: "Filter", KindGroupBy: "GroupBy", KindReduceByKey: "ReduceByKey",
	KindReduce: "Reduce", KindSort: "Sort", KindDistinct: "Distinct",
	KindUnion: "Union", KindJoin: "Join", KindThetaJoin: "ThetaJoin",
	KindCartesian: "Cartesian", KindCount: "Count", KindSample: "Sample",
	KindRepeat: "Repeat", KindDoWhile: "DoWhile", KindLoopInput: "LoopInput",
	KindSink: "Sink",
}

// String returns the operator kind's name.
func (k OpKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Arity returns the number of inputs an operator of this kind takes.
func (k OpKind) Arity() int {
	switch k {
	case KindSource, KindLoopInput:
		return 0
	case KindUnion, KindJoin, KindThetaJoin, KindCartesian:
		return 2
	default:
		return 1
	}
}

// The UDF signatures logical operators are parameterised with. Each
// corresponds to the applyOp of a LogicalOperator template (§3.2):
// users provide these functions, RHEEM invokes them per data quantum.
//
// A UDF may be called concurrently, on different data quanta, and the
// outputs keep input order whatever ran them. javaengine and sparksim run a
// chain of Map, Filter and FlatMap UDFs as one pass over each 4 096-row
// window or partition, on every core; sparksim runs a stage's key, reduce
// and group UDFs per partition the same way, as Spark runs its tasks. Only
// relengine calls a user function from one goroutine at a time within a
// run. A UDF that keeps state across calls must guard it.
type (
	// SourceFunc produces the input records of a plan.
	SourceFunc func() ([]data.Record, error)
	// MapFunc transforms one data quantum into another.
	MapFunc func(data.Record) (data.Record, error)
	// FlatMapFunc expands one data quantum into zero or more.
	FlatMapFunc func(data.Record) ([]data.Record, error)
	// FilterFunc decides whether a data quantum is kept.
	FilterFunc func(data.Record) (bool, error)
	// KeyFunc derives a grouping/joining/sorting key from a quantum.
	KeyFunc func(data.Record) (data.Value, error)
	// GroupFunc processes one key group and emits result quanta.
	GroupFunc func(key data.Value, group []data.Record) ([]data.Record, error)
	// ReduceFunc folds two quanta into one; it must be associative.
	ReduceFunc func(a, b data.Record) (data.Record, error)
	// PredFunc decides whether a pair of quanta joins.
	PredFunc func(l, r data.Record) (bool, error)
	// CondFunc decides whether a DoWhile loop continues, given the
	// iteration number (0-based, already completed) and the current
	// loop state.
	CondFunc func(iteration int, state []data.Record) (bool, error)
)

// CompareOp is a comparison operator of an inequality join condition.
type CompareOp int

// Comparison operators. The first four are the inequality operators in
// the notation of the IEJoin paper (Khayyat et al., PVLDB 2015) — the
// only ones valid in an IECondition; Eq and NotEq complete the set for
// column predicates.
const (
	Less CompareOp = iota
	LessEq
	Greater
	GreaterEq
	Eq
	NotEq
)

// String renders the comparison operator.
func (c CompareOp) String() string {
	switch c {
	case Less:
		return "<"
	case LessEq:
		return "<="
	case Greater:
		return ">"
	case GreaterEq:
		return ">="
	case Eq:
		return "=="
	case NotEq:
		return "!="
	default:
		return fmt.Sprintf("CompareOp(%d)", int(c))
	}
}

// test reports whether a three-way comparison result satisfies c.
func (c CompareOp) test(cmp int) bool {
	switch c {
	case Less:
		return cmp < 0
	case LessEq:
		return cmp <= 0
	case Greater:
		return cmp > 0
	case GreaterEq:
		return cmp >= 0
	case Eq:
		return cmp == 0
	case NotEq:
		return cmp != 0
	default:
		return false
	}
}

// Eval applies the comparison to two values under data.Compare, the
// total order an inequality join sorts by: nulls order first.
func (c CompareOp) Eval(a, b data.Value) bool { return c.test(data.Compare(a, b)) }

// Holds applies the comparison as a predicate, under the SQL rule every
// declarative filter follows: a null on either side never matches,
// whatever the operator; other values compare as Eval compares them.
func (c CompareOp) Holds(a, b data.Value) bool {
	return !a.IsNull() && !b.IsNull() && c.Eval(a, b)
}

// IECondition is one inequality condition "left.Field ⊙ right.Field" of
// a theta join. Declaring conditions (instead of burying them in an
// opaque predicate) is what lets the optimizer map a ThetaJoin to the
// IEJoin physical operator — the paper's worked extensibility example.
type IECondition struct {
	LeftField  int
	Op         CompareOp
	RightField int
}

// Operator is a node of a logical plan; Validate checks that it holds the
// payload its kind needs. A kind holds at most one UDF beside Key and at
// most one column form, each in one slot the builder alone writes and an
// accessor of its name reads (Map, ColPred, ...); what only loops,
// theta-joins, samples and rare hints use sits behind ext.
type Operator struct {
	id     int32
	kind   OpKind
	n      uint8 // inputs held in in; every kind's arity is at most 2
	flags  uint8 // the column form col holds, and Sort's descending bit
	colLen int32 // ColProject's length
	name   string
	in     [2]*Operator
	fn     any            // the kind's UDF; Join's is its right KeyFunc
	col    unsafe.Pointer // the kind's column form, which flags names
	ext    *opExt

	Key KeyFunc // GroupBy, ReduceByKey, Sort, Join (left)

	// Optimizer hints.
	Schema      *data.Schema // Source/LoopInput: advisory schema
	CardHint    int64        // Source/LoopInput: expected record count
	Selectivity float64      // Filter/ThetaJoin: expected pass fraction (0 = default)
}

// opExt is what only loops, theta-joins, samples and rare hints use.
type opExt struct {
	body    *Plan         // Repeat, DoWhile
	times   int           // Repeat
	maxIter int           // DoWhile safety bound (0 = default)
	n       int           // Sample
	conds   []IECondition // ThetaJoin declarative inequality conditions
	scanKey string
}

// The column forms flags names, and Sort's descending bit. A column form
// is a declarative vectorization hint of the UDF (columnar.go).
const (
	colSource  uint8 = iota + 1 // Source: the records at rest in column form, shared read-only
	colPred                     // Filter: Field ⟨Op⟩ Operand
	colProject                  // Map that is a pure field projection
	colMap                      // Map computing typed columns from typed columns, a window at a time
	colAgg                      // Reduce: per-field pairwise fold
	colGroup                    // GroupBy: key columns and per-column folds
	colMask    uint8 = 7
	descending uint8 = 8
)

func udf[F any](o *Operator) F { f, _ := o.fn.(F); return f }

func colOf[T any](o *Operator, form uint8) *T {
	if o.flags&colMask != form {
		return nil
	}
	return (*T)(o.col)
}

var noExt opExt

func (o *Operator) extOrZero() *opExt {
	if o.ext == nil {
		return &noExt
	}
	return o.ext
}

// ownExt is the operator's opExt, allocated when a rare hint is set on an
// operator whose kind has none.
func (o *Operator) ownExt() *opExt {
	if o.ext == nil {
		o.ext = new(opExt)
	}
	return o.ext
}

// The UDF accessors: each returns nil on a kind that does not hold it.
func (o *Operator) Source() SourceFunc   { return udf[SourceFunc](o) }
func (o *Operator) Map() MapFunc         { return udf[MapFunc](o) }
func (o *Operator) FlatMap() FlatMapFunc { return udf[FlatMapFunc](o) }
func (o *Operator) Filter() FilterFunc   { return udf[FilterFunc](o) }
func (o *Operator) Group() GroupFunc     { return udf[GroupFunc](o) }
func (o *Operator) Reduce() ReduceFunc   { return udf[ReduceFunc](o) } // Reduce, ReduceByKey
func (o *Operator) Pred() PredFunc       { return udf[PredFunc](o) }   // ThetaJoin's residual, may be nil beside Conditions
func (o *Operator) Cond() CondFunc       { return udf[CondFunc](o) }   // DoWhile
func (o *Operator) RightKey() KeyFunc    { return udf[KeyFunc](o) }    // Join

// Desc reports whether a Sort orders descending.
func (o *Operator) Desc() bool { return o.flags&descending != 0 }

// The loop, theta-join, sample and rare-hint accessors: each returns the
// zero value on an operator that does not hold it.
func (o *Operator) Body() *Plan               { return o.extOrZero().body }
func (o *Operator) Times() int                { return o.extOrZero().times }
func (o *Operator) MaxIter() int              { return o.extOrZero().maxIter }
func (o *Operator) N() int                    { return o.extOrZero().n }
func (o *Operator) Conditions() []IECondition { return o.extOrZero().conds }
func (o *Operator) ScanKey() string           { return o.extOrZero().scanKey }

// SetScanKey marks a source that provably produces identical records:
// sources sharing a non-empty ScanKey may be merged by the shared-scan
// optimization. Closure identity cannot be established portably in Go,
// so sharing is opt-in.
func (o *Operator) SetScanKey(key string) { o.ownExt().scanKey = key }

// The column-form accessors: each returns nil on an operator that does
// not hold it.
func (o *Operator) ColSource() *batch.Batch         { return colOf[batch.Batch](o, colSource) }
func (o *Operator) ColPred() *ColumnPredicate       { return colOf[ColumnPredicate](o, colPred) }
func (o *Operator) ColMap() *ColumnMap              { return colOf[ColumnMap](o, colMap) }
func (o *Operator) ColAgg() *ColumnAggregate        { return colOf[ColumnAggregate](o, colAgg) }
func (o *Operator) ColGroup() *ColumnGroupAggregate { return colOf[ColumnGroupAggregate](o, colGroup) }
func (o *Operator) ColProject() []int               { return unsafe.Slice(colOf[int](o, colProject), o.colLen) }

// ID returns the operator's plan-local identifier.
func (o *Operator) ID() int { return int(o.id) }

// Kind returns the operator's dataflow kind.
func (o *Operator) Kind() OpKind { return o.kind }

// Name returns the operator's display name ("Map#3" if not set).
func (o *Operator) Name() string {
	if o.name != "" {
		return o.name
	}
	return o.kind.String() + "#" + strconv.Itoa(int(o.id))
}

// AppendName appends the operator's display name to b, so a label made
// of many operators' names (a task atom's) costs no string per name.
func (o *Operator) AppendName(b []byte) []byte {
	if o.name != "" {
		return append(b, o.name...)
	}
	b = append(b, o.kind.String()...)
	b = append(b, '#')
	return strconv.AppendInt(b, int64(o.id), 10)
}

// Inputs returns the upstream operators. Callers must not mutate the
// returned slice.
func (o *Operator) Inputs() []*Operator { return o.in[:o.n:o.n] }

// validatePayload checks that exactly the payload required by the kind
// is present.
func (o *Operator) validatePayload() error {
	var missing string
	switch k := o.kind; {
	case k == KindSource && o.Source() == nil:
		missing = "a SourceFunc"
	case k == KindMap && o.Map() == nil:
		missing = "a MapFunc"
	case k == KindFlatMap && o.FlatMap() == nil:
		missing = "a FlatMapFunc"
	case k == KindFilter && o.Filter() == nil:
		missing = "a FilterFunc"
	case k == KindGroupBy && (o.Key == nil || o.Group() == nil):
		missing = "a KeyFunc and a GroupFunc"
	case k == KindReduceByKey && (o.Key == nil || o.Reduce() == nil):
		missing = "a KeyFunc and a ReduceFunc"
	case k == KindReduce && o.Reduce() == nil:
		missing = "a ReduceFunc"
	case k == KindSort && o.Key == nil:
		missing = "a KeyFunc"
	case k == KindJoin && (o.Key == nil || o.RightKey() == nil):
		missing = "left and right KeyFuncs"
	case k == KindThetaJoin && o.Pred() == nil && len(o.Conditions()) == 0:
		missing = "a PredFunc or inequality Conditions"
	case k == KindRepeat && (o.Body() == nil || o.Times() <= 0):
		missing = "a Body plan and positive Times"
	case k == KindDoWhile && (o.Body() == nil || o.Cond() == nil):
		missing = "a Body plan and a CondFunc"
	case k == KindSample && o.N() < 0: // 0 is LIMIT 0: no record; the evaluator slices l[:N]
		missing = "non-negative N"
	case k > KindSink:
		return fmt.Errorf("plan: %s has unknown kind", o.Name())
	default: // the payload is there, or the kind has none
		return nil
	}
	return fmt.Errorf("plan: %s requires %s", o.Name(), missing)
}
