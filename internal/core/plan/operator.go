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

	"rheem/internal/core/batch"
	"rheem/internal/data"
)

// OpKind enumerates the dataflow shapes of the logical operator pool.
type OpKind int

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

// Operator is a node of a logical plan. The kind discriminates which
// payload fields are meaningful; Validate enforces the correspondence.
// Operators are created through Builder and are immutable afterwards.
type Operator struct {
	id   int
	kind OpKind
	n    uint8 // inputs held in in; every kind's arity is at most 2
	name string
	in   [2]*Operator

	// UDF payloads; only the fields matching the kind are set.
	Source     SourceFunc
	Map        MapFunc
	FlatMap    FlatMapFunc
	Filter     FilterFunc
	Key        KeyFunc // GroupBy, ReduceByKey, Sort, Join (left)
	RightKey   KeyFunc // Join (right)
	Group      GroupFunc
	Reduce     ReduceFunc
	Pred       PredFunc      // ThetaJoin (residual predicate, may be nil if Conditions given)
	Conditions []IECondition // ThetaJoin declarative inequality conditions
	Cond       CondFunc      // DoWhile
	Times      int           // Repeat
	MaxIter    int           // DoWhile safety bound (0 = default)
	N          int           // Sample
	Desc       bool          // Sort: descending order
	Body       *Plan         // Repeat, DoWhile

	// Optimizer hints.
	Schema   *data.Schema // Source/LoopInput: advisory schema
	CardHint int64        // Source/LoopInput: expected record count
	// ScanKey marks sources that provably produce identical records:
	// sources sharing a non-empty ScanKey may be merged by the
	// shared-scan optimization. Closure identity cannot be established
	// portably in Go, so sharing is opt-in.
	ScanKey      string
	Selectivity  float64 // Filter/ThetaJoin: expected pass fraction (0 = default)
	DistinctKeys int64   // GroupBy/ReduceByKey/Distinct: expected key count
	GroupFanout  float64 // GroupBy: expected output records per input record (0 = default 1)

	// Vectorization hints: declarative column forms of the operator's
	// UDF, letting batch-capable platforms run a columnar kernel
	// instead of calling the closure per record. The builder helpers
	// (SourceColumns, FilterWhere, ProjectCols, MapColumns,
	// AggregateCols, GroupAggregate) derive the UDF and the
	// hint from one specification so the two can never disagree; the
	// UDF remains the semantic ground truth on row-path platforms.
	ColSource  *batch.Batch          // Source: the records at rest in column form, shared read-only
	ColPred    *ColumnPredicate      // Filter: Field ⟨Op⟩ Operand
	ColProject []int                 // Map that is a pure field projection
	ColMap     *ColumnMap            // Map computing typed columns from typed columns, a window at a time
	ColAgg     *ColumnAggregate      // Reduce: per-field pairwise fold
	ColGroup   *ColumnGroupAggregate // GroupBy: key columns and per-column folds
}

// ID returns the operator's plan-local identifier.
func (o *Operator) ID() int { return o.id }

// Kind returns the operator's dataflow kind.
func (o *Operator) Kind() OpKind { return o.kind }

// Name returns the operator's display name ("Map#3" if not set).
func (o *Operator) Name() string {
	if o.name != "" {
		return o.name
	}
	return o.kind.String() + "#" + strconv.Itoa(o.id)
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
	missing := func(what string) error {
		return fmt.Errorf("plan: %s requires %s", o.Name(), what)
	}
	switch o.kind {
	case KindSource:
		if o.Source == nil {
			return missing("a SourceFunc")
		}
	case KindMap:
		if o.Map == nil {
			return missing("a MapFunc")
		}
	case KindFlatMap:
		if o.FlatMap == nil {
			return missing("a FlatMapFunc")
		}
	case KindFilter:
		if o.Filter == nil {
			return missing("a FilterFunc")
		}
	case KindGroupBy:
		if o.Key == nil || o.Group == nil {
			return missing("a KeyFunc and a GroupFunc")
		}
	case KindReduceByKey:
		if o.Key == nil || o.Reduce == nil {
			return missing("a KeyFunc and a ReduceFunc")
		}
	case KindReduce:
		if o.Reduce == nil {
			return missing("a ReduceFunc")
		}
	case KindSort:
		if o.Key == nil {
			return missing("a KeyFunc")
		}
	case KindJoin:
		if o.Key == nil || o.RightKey == nil {
			return missing("left and right KeyFuncs")
		}
	case KindThetaJoin:
		if o.Pred == nil && len(o.Conditions) == 0 {
			return missing("a PredFunc or inequality Conditions")
		}
	case KindRepeat:
		if o.Body == nil || o.Times <= 0 {
			return missing("a Body plan and positive Times")
		}
	case KindDoWhile:
		if o.Body == nil || o.Cond == nil {
			return missing("a Body plan and a CondFunc")
		}
	case KindSample:
		if o.N < 0 { // 0 is LIMIT 0: no record; the evaluator slices l[:N]
			return missing("non-negative N")
		}
	case KindDistinct, KindUnion, KindCartesian, KindCount, KindSink, KindLoopInput:
		// No payload.
	default:
		return fmt.Errorf("plan: %s has unknown kind", o.Name())
	}
	return nil
}
