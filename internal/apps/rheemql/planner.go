package rheemql

import (
	"fmt"
	"math"
	"slices"

	"rheem"
	"rheem/internal/core/batch"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Catalog names the datasets queries can read.
type Catalog struct {
	tables map[string]*TableDef
}

// TableDef is one queryable dataset, at rest in both forms: the records
// it was registered with, and their columns, transposed once. Every
// query's plan reads the same two, so neither may be written to.
type TableDef struct {
	Schema  *data.Schema
	Records []data.Record

	cols *batch.Batch    // row-backed when Records are ragged: no column form
	rows plan.SourceFunc // serves Records
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*TableDef{}}
}

// Register adds a dataset, transposing it once into the column form
// every query's scan carries; recs are kept as its row form and must not
// be written to afterwards.
func (c *Catalog) Register(name string, schema *data.Schema, recs []data.Record) error {
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("rheemql: table %q already registered", name)
	}
	c.tables[name] = &TableDef{Schema: schema, Records: recs, cols: batch.FromRecords(recs), rows: plan.Collection(recs)}
	return nil
}

// source adds the scan of a table: its columns as the hint, and as the
// row form the records the table holds rather than a copy made of the
// columns per query.
func (t *TableDef) source(b *plan.Builder, name string) *plan.Operator {
	src := b.SourceColumns(name, t.cols)
	src.Source = t.rows
	return src
}

// Compiled is a query lowered to a logical plan.
type Compiled struct {
	Plan   *plan.Plan
	Schema *data.Schema // output schema
}

// binding resolves column references against the (possibly joined)
// row layout.
type binding struct {
	qualifier string // table alias
	schema    *data.Schema
	offset    int
}

type env struct{ binds []binding }

func (e *env) resolve(ref ColumnRef) (int, data.Kind, error) {
	var hits []int
	var kind data.Kind
	for _, b := range e.binds {
		if ref.Table != "" && ref.Table != b.qualifier {
			continue
		}
		if i := b.schema.IndexOf(ref.Column); i >= 0 {
			hits = append(hits, b.offset+i)
			kind = b.schema.Field(i).Type
		}
	}
	switch len(hits) {
	case 0:
		return 0, 0, fmt.Errorf("rheemql: unknown column %s", ref)
	case 1:
		return hits[0], kind, nil
	default:
		return 0, 0, fmt.Errorf("rheemql: ambiguous column %s", ref)
	}
}

// Compile lowers a parsed query onto a logical plan over the catalog.
func Compile(q *Query, cat *Catalog) (*Compiled, error) {
	b := plan.NewBuilder("rheemql")
	e := &env{}

	fromDef, ok := cat.tables[q.From.Name]
	if !ok {
		return nil, fmt.Errorf("rheemql: unknown table %q", q.From.Name)
	}
	cur := fromDef.source(b, q.From.Name)
	e.binds = append(e.binds, binding{qualifier: q.From.aliasOrName(), schema: fromDef.Schema})

	if q.Join != nil {
		joinDef, ok := cat.tables[q.Join.Table.Name]
		if !ok {
			return nil, fmt.Errorf("rheemql: unknown table %q", q.Join.Table.Name)
		}
		right := joinDef.source(b, q.Join.Table.Name)
		rightBind := binding{qualifier: q.Join.Table.aliasOrName(), schema: joinDef.Schema, offset: fromDef.Schema.Len()}
		// Resolve the ON columns against each side independently.
		leftEnv := &env{binds: []binding{e.binds[0]}}
		rightEnv := &env{binds: []binding{{qualifier: rightBind.qualifier, schema: joinDef.Schema}}}
		li, _, err := leftEnv.resolve(q.Join.LeftCol)
		if err != nil {
			// The user may have written the sides in either order.
			li, _, err = leftEnv.resolve(q.Join.RightCol)
			if err != nil {
				return nil, fmt.Errorf("rheemql: ON clause: %w", err)
			}
			q.Join.LeftCol, q.Join.RightCol = q.Join.RightCol, q.Join.LeftCol
		}
		ri, _, err := rightEnv.resolve(q.Join.RightCol)
		if err != nil {
			return nil, fmt.Errorf("rheemql: ON clause: %w", err)
		}
		cur = b.Join(cur, right, plan.FieldKey(li), plan.FieldKey(ri))
		e.binds = append(e.binds, rightBind)
	}

	// Every conjunct is a filter of its own, sharing the 0.3 the whole
	// WHERE is taken to keep: consecutive hinted filters are one pass over
	// one selection vector where they are vectorized, and the optimizer
	// fuses the others.
	each := math.Pow(0.3, 1/float64(max(len(q.Where), 1)))
	for _, cmp := range q.Where {
		li, kind, err := e.resolve(cmp.Left)
		if err != nil {
			return nil, err
		}
		if cur, err = filter(b, cur, li, kind, cmp, e); err != nil {
			return nil, err
		}
		cur.Selectivity = each
	}

	var outSchema *data.Schema
	var err error
	if len(q.GroupBy) > 0 || slices.ContainsFunc(q.Select, func(it SelectItem) bool { return it.Agg != "" }) {
		cur, outSchema, err = compileAggregate(b, cur, q, e)
	} else {
		cur, outSchema, err = compileProjection(b, cur, q, e)
	}
	if err != nil {
		return nil, err
	}

	for _, cmp := range q.Having {
		idx := outSchema.IndexOf(cmp.Left.Column)
		if idx < 0 {
			return nil, fmt.Errorf("rheemql: HAVING column %s is not in the output", cmp.Left)
		}
		if cur, err = filter(b, cur, idx, outSchema.Field(idx).Type, cmp, nil); err != nil {
			return nil, err
		}
		// Together the estimator's default for one filter, which HAVING was.
		cur.Selectivity = math.Pow(0.5, 1/float64(len(q.Having)))
	}

	if q.OrderBy != nil {
		idx := outSchema.IndexOf(q.OrderBy.Col.Column)
		if idx < 0 {
			return nil, fmt.Errorf("rheemql: ORDER BY column %s is not in the output", q.OrderBy.Col)
		}
		cur = b.Sort(cur, plan.FieldKey(idx), q.OrderBy.Desc)
	}
	if q.Limit >= 0 {
		cur = b.Sample(cur, q.Limit)
	}
	b.Collect(cur)
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Compiled{Plan: p, Schema: outSchema}, nil
}

// compareOps are the comparison operators by their spelling. Whatever
// the operator, a NULL on either side does not match (CompareOp.Holds).
var compareOps = map[string]plan.CompareOp{
	"=": plan.Eq, "!=": plan.NotEq, "<": plan.Less, "<=": plan.LessEq, ">": plan.Greater, ">=": plan.GreaterEq,
}

// filter lowers one comparison of field with cmp's right-hand side. A
// literal makes it the declarative column predicate, which the
// single-node engine runs vectorized; a column of e, which a hint cannot
// say, a row UDF under the same rule. HAVING, whose right-hand side must
// be a literal, passes no e.
func filter(b *plan.Builder, in *plan.Operator, field int, kind data.Kind, cmp Comparison, e *env) (*plan.Operator, error) {
	op, ok := compareOps[cmp.Op]
	switch {
	case !ok:
		return nil, fmt.Errorf("rheemql: unknown operator %q", cmp.Op)
	case cmp.RightLit != nil:
		return b.FilterWhere(in, field, op, literalValue(*cmp.RightLit, kind)), nil
	case cmp.RightCol != nil && e != nil:
		ri, _, err := e.resolve(*cmp.RightCol)
		if err != nil {
			return nil, err
		}
		return b.Filter(in, func(r data.Record) (bool, error) {
			return op.Holds(r.Field(field), r.Field(ri)), nil
		}), nil
	}
	return nil, fmt.Errorf("rheemql: %s %s needs a literal on its right", cmp.Left, cmp.Op)
}

// literalValue coerces a literal to the compared column's kind.
func literalValue(l Literal, kind data.Kind) data.Value {
	switch {
	case l.IsString:
		return data.Str(l.Str)
	case l.IsBool:
		return data.Bool(l.Bool)
	case kind == data.KindInt && l.IsInt:
		return data.Int(l.Int)
	default:
		return data.Float(l.Num)
	}
}

// compileProjection lowers a plain SELECT list.
func compileProjection(b *plan.Builder, cur *plan.Operator, q *Query, e *env) (*plan.Operator, *data.Schema, error) {
	if len(q.Select) == 1 && q.Select[0].Star {
		// SELECT *: pass-through; output schema is the concatenation.
		var fields []data.Field
		for _, bind := range e.binds {
			for _, f := range bind.schema.Fields() {
				name := f.Name
				for hasField(fields, name) {
					name = bind.qualifier + "_" + name
				}
				fields = append(fields, data.Field{Name: name, Type: f.Type})
			}
		}
		s, err := data.NewSchema(fields...)
		if err != nil {
			return nil, nil, err
		}
		return cur, s, nil
	}
	idx := make([]int, len(q.Select))
	fields := make([]data.Field, len(q.Select))
	for i, it := range q.Select {
		if it.Star || it.Agg != "" {
			return nil, nil, fmt.Errorf("rheemql: mixed star/aggregate projection")
		}
		pos, kind, err := e.resolve(it.Col)
		if err != nil {
			return nil, nil, err
		}
		idx[i] = pos
		name := it.Alias
		if name == "" {
			name = it.Col.Column
		}
		for hasField(fields[:i], name) {
			name = "_" + name
		}
		fields[i] = data.Field{Name: name, Type: kind}
	}
	s, err := data.NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	return b.ProjectCols(cur, idx...), s, nil
}

func hasField(fields []data.Field, name string) bool {
	for _, f := range fields {
		if f.Name == name {
			return true
		}
	}
	return false
}

// aggNames spell the aggregates in the names of the columns they
// generate ("count_star", "avg_pressure").
var aggNames = map[AggFunc]string{
	AggCount: "count", AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max",
}

// groupFns are the grouped folds behind the aggregate functions.
var groupFns = map[AggFunc]plan.GroupFn{
	AggCount: plan.GroupCount, AggSum: plan.GroupSum, AggAvg: plan.GroupAvg, AggMin: plan.GroupMin, AggMax: plan.GroupMax,
}

// compileAggregate lowers GROUP BY / global aggregation onto the
// declarative grouped aggregate: the GROUP BY columns are its keys, the
// select list its output columns.
func compileAggregate(b *plan.Builder, cur *plan.Operator, q *Query, e *env) (*plan.Operator, *data.Schema, error) {
	keys := make([]int, len(q.GroupBy))
	for i, col := range q.GroupBy {
		pos, _, err := e.resolve(col)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = pos
	}
	outs := make([]plan.GroupCol, len(q.Select))
	fields := make([]data.Field, len(q.Select))
	for i, it := range q.Select {
		name, kind := it.Alias, data.KindFloat
		switch {
		case it.Star:
			return nil, nil, fmt.Errorf("rheemql: SELECT * with aggregation")
		case it.Agg == "":
			if !slices.ContainsFunc(q.GroupBy, func(g ColumnRef) bool { return g.Column == it.Col.Column }) {
				return nil, nil, fmt.Errorf("rheemql: column %s is neither aggregated nor grouped", it.Col)
			}
			pos, colKind, err := e.resolve(it.Col)
			if err != nil {
				return nil, nil, err
			}
			outs[i], kind = plan.GroupCol{Fn: plan.GroupKey, Field: pos}, colKind
			if name == "" {
				name = it.Col.Column
			}
		case it.ArgStar:
			outs[i], kind = plan.GroupCol{Fn: plan.GroupCountAll}, data.KindInt
			if name == "" {
				name = aggNames[it.Agg] + "_star"
			}
		default:
			pos, argKind, err := e.resolve(it.Arg)
			if err != nil {
				return nil, nil, err
			}
			fn, ok := groupFns[it.Agg]
			if !ok {
				return nil, nil, fmt.Errorf("rheemql: unknown aggregate %s", it.Agg)
			}
			outs[i] = plan.GroupCol{Fn: fn, Field: pos}
			switch it.Agg {
			case AggCount:
				kind = data.KindInt
			case AggMin, AggMax:
				kind = argKind
			}
			if name == "" {
				name = aggNames[it.Agg] + "_" + it.Arg.Column
			}
		}
		for hasField(fields[:i], name) {
			name = "_" + name
		}
		fields[i] = data.Field{Name: name, Type: kind}
	}
	schema, err := data.NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	return b.GroupAggregate(cur, keys, outs...), schema, nil
}

// Run parses, compiles, and executes a query on a context.
func Run(ctx *rheem.Context, cat *Catalog, sql string, opts ...rheem.RunOption) ([]data.Record, *data.Schema, *rheem.Report, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	compiled, err := Compile(q, cat)
	if err != nil {
		return nil, nil, nil, err
	}
	recs, rep, err := ctx.Execute(compiled.Plan, opts...)
	if err != nil {
		return nil, nil, rep, err
	}
	return recs, compiled.Schema, rep, nil
}
