package rheemql

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

// runForm runs lp pinned to platform id: as compiled, over the catalog's
// rows ("row-source": the scans without their columns) or with every
// column hint dropped ("udf"). A dropped hint's operator is built again
// from the UDF the builder derived from it.
func runForm(reg *engine.Registry, lp *plan.Plan, id engine.PlatformID, form string) ([]data.Record, error) {
	pp, err := physical.FromLogical(lp)
	if err != nil {
		return nil, err
	}
	for _, op := range pp.Ops {
		lop := op.Logical
		if _, ok := lop.ColSort(); ok && form == "udf" { // the FieldKey SortColumn derived
			op.Logical = plan.NewBuilder("udf").Sort(nil, lop.Key, lop.Desc())
			continue
		}
		var fn any
		switch {
		case form == "compiled":
		case lop.ColSource() != nil:
			fn = lop.Source()
		case form == "row-source":
		case lop.ColPred() != nil:
			fn = lop.Filter()
		case lop.ColProject() != nil:
			fn = lop.Map()
		case lop.ColGroup() != nil:
			fn = lop.Group()
		}
		if fn != nil {
			op.Logical = plan.NewSynthetic(lop.Kind(), lop.Name(), fn)
			op.Logical.Key, op.Logical.CardHint, op.Logical.Selectivity = lop.Key, lop.CardHint, lop.Selectivity
		}
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: id})
	if err != nil {
		return nil, err
	}
	res, err := executor.Run(ep, reg, executor.Options{})
	if err != nil {
		return nil, err
	}
	return res.Records, nil
}

// sqlGen draws queries from RheemQL's grammar over the tables of
// diffCatalog: plain and aggregated select lists, zero to two GROUP BY
// keys, WHERE conjuncts against literals and against columns, HAVING,
// ORDER BY and LIMIT, with and without the join. Every query it draws
// has one answer as a multiset: LIMIT (0 included) appears only under an
// ORDER BY whose column is unique in the output.
type sqlGen struct{ rng *rand.Rand }

func (g *sqlGen) pick(opts ...string) string { return opts[g.rng.IntN(len(opts))] }
func (g *sqlGen) chance(pct int) bool        { return g.rng.IntN(100) < pct }

// literal is a literal comparable with column col.
func (g *sqlGen) literal(col string) string {
	switch col {
	case "s", "name":
		return fmt.Sprintf("'x%d'", g.rng.IntN(4))
	case "f":
		return fmt.Sprintf("%g", float64(g.rng.IntN(33))/8)
	}
	if g.chance(15) { // an int column against a float literal
		return fmt.Sprintf("%d.5", g.rng.IntN(4))
	}
	return fmt.Sprint(g.rng.IntN(5)) // the grammar has no negative literals
}

func (g *sqlGen) op() string { return g.pick("=", "!=", "<", "<=", ">", ">=") }

func (g *sqlGen) query() string {
	cols := []string{"id", "a", "b", "s", "f"}
	from := "t"
	if g.chance(20) {
		from, cols = "t JOIN u ON a = k", append(cols, "k", "name")
	}
	var where []string
	for n := g.rng.IntN(4); n > 0; n-- {
		if g.chance(25) {
			where = append(where, g.pick("a", "b", "id", "f")+" "+g.op()+" "+g.pick("a", "b", "f"))
		} else {
			c := cols[g.rng.IntN(len(cols))]
			where = append(where, c+" "+g.op()+" "+g.literal(c))
		}
	}
	var sel []string
	var tail string
	if g.chance(60) {
		keys := []string{"a", "b", "s"}
		g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		keys = keys[:g.rng.IntN(3)]
		shown := keys[:g.rng.IntN(len(keys)+1)]
		sel = append(sel, shown...)
		var numeric []string
		for i, n := 0, 1+g.rng.IntN(3); i < n; i++ {
			alias := fmt.Sprintf("m%d", i)
			switch fn := g.pick("COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX"); fn {
			case "COUNT(*)":
				sel, numeric = append(sel, "COUNT(*) AS "+alias), append(numeric, alias)
			case "COUNT":
				sel, numeric = append(sel, "COUNT("+cols[g.rng.IntN(len(cols))]+") AS "+alias), append(numeric, alias)
			case "SUM", "AVG":
				sel, numeric = append(sel, fn+"("+g.pick("id", "a", "b", "f")+") AS "+alias), append(numeric, alias)
			default:
				sel = append(sel, fn+"("+cols[g.rng.IntN(len(cols))]+") AS "+alias)
			}
		}
		if len(keys) > 0 {
			tail += " GROUP BY " + strings.Join(keys, ", ")
		}
		if len(numeric) > 0 && g.chance(40) {
			tail += " HAVING " + g.pick(numeric...) + " " + g.op() + " " + g.literal("b")
		}
		if len(keys) == 1 && len(shown) == 1 && g.chance(50) {
			tail += " ORDER BY " + shown[0] + g.pick("", " DESC")
			if g.chance(50) {
				tail += fmt.Sprint(" LIMIT ", g.rng.IntN(5))
			}
		}
	} else {
		g.rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		sel = cols[:1+g.rng.IntN(3)]
		if g.chance(10) {
			sel = []string{"*"}
		}
		if sel[0] == "id" && g.chance(60) {
			tail += " ORDER BY id" + g.pick("", " DESC")
			if g.chance(50) {
				tail += fmt.Sprint(" LIMIT ", g.rng.IntN(21))
			}
		}
	}
	q := "SELECT " + strings.Join(sel, ", ") + " FROM " + from
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q + tail
}

// diffCatalog is t(id, a, b, s, f) — id unique, the rest drawn from a
// few values with NULLs among them, floats multiples of 1/8 so that a
// sum does not depend on the order a platform adds in — and u(k, name),
// k unique.
func diffCatalog(t *testing.T, rng *rand.Rand, n int) *Catalog {
	t.Helper()
	orNull := func(v data.Value) data.Value {
		if rng.IntN(8) == 0 {
			return data.Null()
		}
		return v
	}
	recs := make([]data.Record, n)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)),
			orNull(data.Int(int64(rng.IntN(5)))), orNull(data.Int(int64(rng.IntN(7)-3))),
			orNull(data.Str(fmt.Sprintf("x%d", rng.IntN(4)))), orNull(data.Float(float64(rng.IntN(33))/8)))
	}
	cat := NewCatalog()
	if err := cat.Register("t", data.MustSchema(
		data.Field{Name: "id", Type: data.KindInt}, data.Field{Name: "a", Type: data.KindInt}, data.Field{Name: "b", Type: data.KindInt},
		data.Field{Name: "s", Type: data.KindString}, data.Field{Name: "f", Type: data.KindFloat}), recs); err != nil {
		t.Fatal(err)
	}
	us := make([]data.Record, 4)
	for i := range us {
		us[i] = data.NewRecord(data.Int(int64(i)), data.Str(fmt.Sprintf("x%d", 3-i)))
	}
	if err := cat.Register("u", data.MustSchema(
		data.Field{Name: "k", Type: data.KindInt}, data.Field{Name: "name", Type: data.KindString}), us); err != nil {
		t.Fatal(err)
	}
	return cat
}

// canonicalRows is the sorted binary encodings of the records: the
// multiset, byte for byte.
func canonicalRows(t *testing.T, recs []data.Record) string {
	t.Helper()
	enc := make([]string, len(recs))
	for i, r := range recs {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, []data.Record{r}); err != nil {
			t.Fatal(err)
		}
		enc[i] = buf.String()
	}
	sort.Strings(enc)
	return strings.Join(enc, "\x00")
}

// orderedRows is the records' binary encodings in the order they came.
func orderedRows(t *testing.T, recs []data.Record) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSQLHintedMatchesUDF is the differential suite over generated SQL:
// each query runs on the single-node engine as compiled — the catalog's
// columns read where they stand, filters, projections, aggregates and
// ORDER BY on the column kernels — on the same engine over the catalog's
// rows, on it again with every hint dropped, and on the two platforms
// that run the derived row UDFs, and all five must return the same
// multiset byte for byte. Order is part of an ORDER BY's answer: every
// form must return its rows in key order, and, the generator ordering
// only by a column unique in the output, the very same sequence. The last
// catalog, 3 × 4 096 + 17 rows, takes twenty queries with an ORDER BY, so
// the sort reads several of javaengine's windows.
func TestSQLHintedMatchesUDF(t *testing.T) {
	ctx := testCtx(t)
	rng := rand.New(rand.NewPCG(19, 2016))
	gen := &sqlGen{rng: rng}
	answered, ordered := 0, 0
	for _, n := range []int{0, 1, 37, 300, 3*4096 + 17} {
		cat := diffCatalog(t, rng, n)
		queries := 60
		if n > 4096 {
			queries = 20
		}
		for i := 0; i < queries; i++ {
			sql := gen.query()
			for n > 4096 && !strings.Contains(sql, " ORDER BY ") {
				sql = gen.query()
			}
			q, err := Parse(sql)
			if err != nil {
				t.Fatalf("generated query does not parse: %s: %v", sql, err)
			}
			var want, wantSeq string
			for _, p := range ctx.Registry().Platforms() {
				forms := []string{"compiled"}
				if p.ID() == javaengine.ID { // the others never read a hint
					forms = append(forms, "row-source", "udf")
				}
				for _, form := range forms {
					c, err := Compile(q, cat)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					recs, err := runForm(ctx.Registry(), c.Plan, p.ID(), form)
					if err != nil {
						t.Fatalf("%s on %s (%s): %v", sql, p.ID(), form, err)
					}
					got := canonicalRows(t, recs)
					if p.ID() == javaengine.ID && form == "compiled" {
						want = got
						if len(recs) > 0 {
							answered++
						}
					} else if got != want {
						t.Errorf("n=%d: %s\n on %s (%s) diverges from the plan as compiled on %s", n, sql, p.ID(), form, javaengine.ID)
					}
					if q.OrderBy == nil {
						continue
					}
					key := c.Schema.IndexOf(q.OrderBy.Col.Column)
					for r := 1; r < len(recs); r++ {
						if c := data.Compare(recs[r-1].Field(key), recs[r].Field(key)); c > 0 && !q.OrderBy.Desc || c < 0 && q.OrderBy.Desc {
							t.Errorf("n=%d: %s\n on %s (%s): row %d is out of key order: %v after %v", n, sql, p.ID(), form, r, recs[r], recs[r-1])
							break
						}
					}
					if seq := orderedRows(t, recs); wantSeq == "" {
						wantSeq = seq
						if len(recs) > 1 {
							ordered++
						}
					} else if seq != wantSeq {
						t.Errorf("n=%d: %s\n on %s (%s) returns its rows in another order than the plan as compiled on %s", n, sql, p.ID(), form, javaengine.ID)
					}
				}
			}
		}
	}
	if answered < 80 {
		t.Errorf("only %d generated queries returned rows: the generator has drifted into the empty corner", answered)
	}
	if ordered < 20 {
		t.Errorf("only %d generated ORDER BY queries returned two rows or more: too few to tell an order", ordered)
	}
}
