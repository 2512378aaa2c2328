package rheemql

import (
	"math"
	"sort"
	"strings"
	"testing"

	"rheem"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
)

func testCtx(t *testing.T) *rheem.Context {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func taxCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	cat := NewCatalog()
	recs := datagen.Tax(datagen.TaxConfig{N: n, Zips: 10, ErrorRate: 0, Seed: 1})
	if err := cat.Register("tax", datagen.TaxSchema, recs); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x >= 1.5 AND y != 'hi'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	if toks[0].text != "SELECT" || toks[0].kind != tokKeyword {
		t.Errorf("first token %+v", toks[0])
	}
	found := false
	for _, tok := range toks {
		if tok.kind == tokSymbol && tok.text == ">=" {
			found = true
		}
	}
	if !found {
		t.Error(">= not lexed as one token")
	}
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("SELECT a ! b"); err == nil {
		t.Error("lone ! accepted")
	}
	if _, err := lex("SELECT a ; b"); err == nil {
		t.Error("stray rune accepted")
	}
	_ = kinds
}

func TestParseFullQuery(t *testing.T) {
	q, err := Parse(`SELECT zip, COUNT(*) AS n, AVG(salary) FROM tax t
		WHERE state = 'NY' AND salary > 50000
		GROUP BY zip ORDER BY n DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 3 || q.Select[1].Alias != "n" || q.Select[2].Agg != AggAvg {
		t.Errorf("select = %+v", q.Select)
	}
	if q.From.Name != "tax" || q.From.Alias != "t" {
		t.Errorf("from = %+v", q.From)
	}
	if len(q.Where) != 2 || q.Where[0].RightLit.Str != "NY" {
		t.Errorf("where = %+v", q.Where)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "zip" {
		t.Errorf("group by = %+v", q.GroupBy)
	}
	if q.OrderBy == nil || !q.OrderBy.Desc {
		t.Errorf("order by = %+v", q.OrderBy)
	}
	if q.Limit != 10 {
		t.Errorf("limit = %d", q.Limit)
	}
}

// TestNumberLiterals: a dot-free literal is an int unless it overflows
// int64, when it is a float, as a dotted one is; and a float literal
// costs no more to parse than its int twin — trying a dotted token as an
// int first allocated the *NumError the failure returns.
func TestNumberLiterals(t *testing.T) {
	for _, c := range []struct {
		text  string
		isInt bool
		num   float64
	}{{"175", true, 175}, {"175.5", false, 175.5}, {"99999999999999999999", false, 1e20}} {
		q, err := Parse("SELECT well FROM sensors WHERE pressure > " + c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		if lit := q.Where[0].RightLit; lit.IsInt != c.isInt || lit.Num != c.num {
			t.Errorf("%s parsed as %+v", c.text, *lit)
		}
	}
	allocs := func(sql string) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Parse(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	f := allocs("SELECT well FROM sensors WHERE pressure > 175.5")
	i := allocs("SELECT well FROM sensors WHERE pressure > 17555")
	if f > i {
		t.Errorf("a float literal costs %.0f allocations to parse, its int twin %.0f", f, i)
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse("SELECT a.x, b.y FROM a JOIN b ON a.id = b.aid WHERE a.x < b.y")
	if err != nil {
		t.Fatal(err)
	}
	if q.Join == nil || q.Join.Table.Name != "b" {
		t.Fatalf("join = %+v", q.Join)
	}
	if q.Join.LeftCol.String() != "a.id" || q.Join.RightCol.String() != "b.aid" {
		t.Errorf("on = %s, %s", q.Join.LeftCol, q.Join.RightCol)
	}
	if q.Where[0].RightCol == nil {
		t.Error("column-column comparison lost")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t GROUP zip",
		"SELECT a FROM t extra garbage (",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted", q)
		}
	}
}

func TestSelectWhereProjection(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 500)
	recs, schema, _, err := Run(ctx, cat, "SELECT id, salary FROM tax WHERE salary > 150000")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Spec() != "id:int,salary:float" {
		t.Errorf("schema = %s", schema)
	}
	if len(recs) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range recs {
		if r.Field(1).Float() <= 150000 {
			t.Fatalf("filter failed: %s", r)
		}
	}
}

func TestSelectStar(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 50)
	recs, schema, _, err := Run(ctx, cat, "SELECT * FROM tax LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || schema.Len() != datagen.TaxSchema.Len() {
		t.Errorf("star: %d rows, schema %s", len(recs), schema)
	}
}

func TestGroupByAggregates(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 1000)
	recs, schema, _, err := Run(ctx, cat,
		"SELECT state, COUNT(*) AS n, AVG(salary) AS avg_sal, MAX(rate) AS maxr FROM tax GROUP BY state ORDER BY state")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Spec() != "state:string,n:int,avg_sal:float,maxr:float" {
		t.Errorf("schema = %s", schema)
	}
	var total int64
	prev := ""
	for _, r := range recs {
		total += r.Field(1).Int()
		if r.Field(2).Float() < 20000 || r.Field(2).Float() > 200000 {
			t.Errorf("implausible avg: %s", r)
		}
		if r.Field(0).Str() < prev {
			t.Error("ORDER BY state violated")
		}
		prev = r.Field(0).Str()
	}
	if total != 1000 {
		t.Errorf("counts sum to %d", total)
	}
}

func TestGlobalAggregate(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 300)
	recs, _, _, err := Run(ctx, cat, "SELECT COUNT(*), MIN(salary), MAX(salary) FROM tax")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d rows for global aggregate", len(recs))
	}
	if recs[0].Field(0).Int() != 300 {
		t.Errorf("count = %s", recs[0])
	}
	if recs[0].Field(1).Float() >= recs[0].Field(2).Float() {
		t.Errorf("min >= max: %s", recs[0])
	}
}

func TestJoinQuery(t *testing.T) {
	ctx := testCtx(t)
	cat := NewCatalog()
	people := data.MustSchema(
		data.Field{Name: "id", Type: data.KindInt},
		data.Field{Name: "dept", Type: data.KindInt},
		data.Field{Name: "name", Type: data.KindString},
	)
	depts := data.MustSchema(
		data.Field{Name: "did", Type: data.KindInt},
		data.Field{Name: "dname", Type: data.KindString},
	)
	if err := cat.Register("people", people, []data.Record{
		data.NewRecord(data.Int(1), data.Int(10), data.Str("ann")),
		data.NewRecord(data.Int(2), data.Int(20), data.Str("bob")),
		data.NewRecord(data.Int(3), data.Int(10), data.Str("cyd")),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("depts", depts, []data.Record{
		data.NewRecord(data.Int(10), data.Str("eng")),
		data.NewRecord(data.Int(20), data.Str("ops")),
	}); err != nil {
		t.Fatal(err)
	}
	recs, schema, _, err := Run(ctx, cat,
		"SELECT name, dname FROM people p JOIN depts d ON p.dept = d.did WHERE dname = 'eng' ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Spec() != "name:string,dname:string" {
		t.Errorf("schema = %s", schema)
	}
	if len(recs) != 2 || recs[0].Field(0).Str() != "ann" || recs[1].Field(0).Str() != "cyd" {
		t.Errorf("join rows = %v", recs)
	}
	// Aggregation over a join.
	recs, _, _, err = Run(ctx, cat,
		"SELECT dname, COUNT(*) AS n FROM people p JOIN depts d ON p.dept = d.did GROUP BY dname ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Field(1).Int() != 2 {
		t.Errorf("join-aggregate rows = %v", recs)
	}
}

func TestHaving(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 1000)
	recs, schema, _, err := Run(ctx, cat,
		"SELECT state, COUNT(*) AS n FROM tax GROUP BY state HAVING n >= 100 ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Spec() != "state:string,n:int" {
		t.Errorf("schema = %s", schema)
	}
	if len(recs) == 0 {
		t.Fatal("HAVING filtered everything")
	}
	for _, r := range recs {
		if r.Field(1).Int() < 100 {
			t.Errorf("HAVING violated: %s", r)
		}
	}
	// Sanity: without HAVING there are more groups.
	all, _, _, err := Run(ctx, cat, "SELECT state, COUNT(*) AS n FROM tax GROUP BY state")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= len(recs) {
		t.Skip("all groups pass the threshold at this seed")
	}
}

func TestHavingOnDerivedAggregateName(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 500)
	recs, _, _, err := Run(ctx, cat,
		"SELECT zip, AVG(salary) FROM tax GROUP BY zip HAVING avg_salary > 100000")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Field(1).Float() <= 100000 {
			t.Errorf("derived-name HAVING violated: %s", r)
		}
	}
}

func TestHavingErrors(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 10)
	bad := []string{
		"SELECT id FROM tax HAVING id > 1",                                      // no aggregation
		"SELECT state, COUNT(*) FROM tax GROUP BY state HAVING ghost > 1",       // unknown output column
		"SELECT state, COUNT(*) AS n FROM tax GROUP BY state HAVING n > salary", // column RHS
	}
	for _, q := range bad {
		if _, _, _, err := Run(ctx, cat, q); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 10)
	bad := []string{
		"SELECT nope FROM tax",
		"SELECT id FROM ghost",
		"SELECT id FROM tax ORDER BY salary", // not in output
		"SELECT salary FROM tax GROUP BY zip",
		"SELECT * , COUNT(*) FROM tax",
		"SELECT t.id FROM tax x WHERE q.id = 1",
	}
	for _, q := range bad {
		if _, _, _, err := Run(ctx, cat, q); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
	if err := cat.Register("tax", datagen.TaxSchema, nil); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestQueryRunsOnEveryPlatform(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 400)
	const q = "SELECT zip, COUNT(*) AS n FROM tax GROUP BY zip ORDER BY zip"
	var want string
	for _, p := range ctx.Registry().Platforms() {
		recs, _, _, err := Run(ctx, cat, q, rheem.OnPlatform(p.ID()))
		if err != nil {
			t.Fatalf("%s: %v", p.ID(), err)
		}
		var sb strings.Builder
		for _, r := range recs {
			sb.WriteString(r.String())
		}
		if want == "" {
			want = sb.String()
		} else if sb.String() != want {
			t.Errorf("%s produced different rows", p.ID())
		}
	}
	if want == "" {
		t.Fatal("no platforms ran")
	}
}

// TestLimitZero: LIMIT 0 is a query, not a plan-build error — no row,
// the query's own schema, on each pinned platform and under free choice.
func TestLimitZero(t *testing.T) {
	ctx := testCtx(t)
	cat := taxCatalog(t, 100)
	pins := [][]rheem.RunOption{nil}
	for _, p := range ctx.Registry().Platforms() {
		pins = append(pins, []rheem.RunOption{rheem.OnPlatform(p.ID())})
	}
	for _, q := range []string{
		"SELECT zip, salary FROM tax LIMIT 0",
		"SELECT zip, COUNT(*) AS n FROM tax GROUP BY zip ORDER BY zip LIMIT 0",
	} {
		for _, opts := range pins {
			recs, schema, _, err := Run(ctx, cat, q, opts...)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if len(recs) != 0 || schema.Len() != 2 || schema.Field(0).Name != "zip" {
				t.Errorf("%s: %d rows with schema %v, want none with the two selected columns", q, len(recs), schema)
			}
		}
	}
}

// rowsOf renders a result one row per line, sorted: the multiset a
// query without ORDER BY promises.
func rowsOf(recs []data.Record) string {
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestNullNeverMatches pins the SQL rule at all three predicate sites —
// column ⟨op⟩ literal, column ⟨op⟩ column, HAVING — on every platform: a
// NULL on either side satisfies no comparison, <, <= and != included
// (data.Compare orders NULL below every value, which used to let it
// through those three).
func TestNullNeverMatches(t *testing.T) {
	ctx := testCtx(t)
	cat := NewCatalog()
	schema := data.MustSchema(
		data.Field{Name: "id", Type: data.KindInt},
		data.Field{Name: "hour", Type: data.KindInt},
		data.Field{Name: "other", Type: data.KindInt},
	)
	null := data.Null()
	if err := cat.Register("t", schema, []data.Record{
		data.NewRecord(data.Int(1), data.Int(3), data.Int(9)),
		data.NewRecord(data.Int(2), null, data.Int(9)),
		data.NewRecord(data.Int(3), data.Int(7), null),
		data.NewRecord(data.Int(4), null, null),
		data.NewRecord(data.Int(5), data.Int(5), data.Int(5)),
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT id FROM t WHERE hour < 5", "(1)"},
		{"SELECT id FROM t WHERE hour <= 5", "(1)\n(5)"},
		{"SELECT id FROM t WHERE hour != 5", "(1)\n(3)"},
		{"SELECT id FROM t WHERE hour = 5", "(5)"},
		{"SELECT id FROM t WHERE hour > 3", "(3)\n(5)"},
		{"SELECT id FROM t WHERE hour >= 3", "(1)\n(3)\n(5)"},
		{"SELECT id FROM t WHERE hour < other", "(1)"},
		{"SELECT id FROM t WHERE hour <= other", "(1)\n(5)"},
		{"SELECT id FROM t WHERE hour != other", "(1)"},
		{"SELECT id FROM t WHERE other > hour", "(1)"},
		// Groups by id: MIN(hour) is NULL for ids 2 and 4.
		{"SELECT id, MIN(hour) AS m FROM t GROUP BY id HAVING m < 6", "(1, 3)\n(5, 5)"},
		{"SELECT id, MIN(hour) AS m FROM t GROUP BY id HAVING m <= 3", "(1, 3)"},
		{"SELECT id, MIN(hour) AS m FROM t GROUP BY id HAVING m != 3", "(3, 7)\n(5, 5)"},
	} {
		for _, p := range ctx.Registry().Platforms() {
			recs, _, _, err := Run(ctx, cat, tc.sql, rheem.OnPlatform(p.ID()))
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.sql, p.ID(), err)
			}
			if got := rowsOf(recs); got != tc.want {
				t.Errorf("%s on %s returned\n%s\nwant\n%s", tc.sql, p.ID(), got, tc.want)
			}
		}
	}
}

// TestSQLFollowsTheOneOrder: ORDER BY, WHERE and MIN/MAX read data.Compare,
// so a NaN sorts first, equals nothing but a NaN and is below every
// number, and int keys beyond 2⁵³ order exactly — on each pinned platform
// and under free choice, rows in the order the query asked for.
func TestSQLFollowsTheOneOrder(t *testing.T) {
	ctx := testCtx(t)
	cat := NewCatalog()
	schema := data.MustSchema(
		data.Field{Name: "id", Type: data.KindInt},
		data.Field{Name: "x", Type: data.KindFloat},
		data.Field{Name: "k", Type: data.KindInt},
	)
	nan, big := math.NaN(), int64(1)<<53
	var rows []data.Record
	for i, x := range []float64{3, nan, 1, 5, 2, 4} {
		rows = append(rows, data.NewRecord(data.Int(int64(i+1)), data.Float(x), data.Int(big+[]int64{1, 0, 2, 5, 4, 3}[i])))
	}
	if err := cat.Register("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	pins := [][]rheem.RunOption{nil}
	for _, p := range ctx.Registry().Platforms() {
		pins = append(pins, []rheem.RunOption{rheem.OnPlatform(p.ID())})
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT id, x FROM t ORDER BY x", "(2, NaN)(3, 1)(5, 2)(1, 3)(6, 4)(4, 5)"},
		{"SELECT id, x FROM t ORDER BY x DESC", "(4, 5)(6, 4)(1, 3)(5, 2)(3, 1)(2, NaN)"},
		{"SELECT id, k FROM t ORDER BY k", "(2, 9007199254740992)(1, 9007199254740993)(3, 9007199254740994)(6, 9007199254740995)(5, 9007199254740996)(4, 9007199254740997)"},
		{"SELECT id, k FROM t ORDER BY k DESC", "(4, 9007199254740997)(5, 9007199254740996)(6, 9007199254740995)(3, 9007199254740994)(1, 9007199254740993)(2, 9007199254740992)"},
		{"SELECT id FROM t WHERE x = 5 ORDER BY id", "(4)"},
		{"SELECT id FROM t WHERE x >= 5 ORDER BY id", "(4)"},
		{"SELECT id FROM t WHERE x != 5 ORDER BY id", "(1)(2)(3)(5)(6)"},
		{"SELECT id FROM t WHERE x < 2 ORDER BY id", "(2)(3)"},
		{"SELECT MIN(x) AS lo, MAX(x) AS hi, MAX(k) AS top FROM t", "(NaN, 5, 9007199254740997)"},
	} {
		for _, opts := range pins {
			recs, _, _, err := Run(ctx, cat, tc.sql, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			var got strings.Builder
			for _, r := range recs {
				got.WriteString(r.String())
			}
			if got.String() != tc.want {
				t.Errorf("%s (%d run options) returned %s, want %s", tc.sql, len(opts), got.String(), tc.want)
			}
		}
	}
}

// TestMultiColumnGroupKeysAreExact: a multi-column GROUP BY tells key
// tuples apart by their values, not by a 64-bit mix of their hashes that
// two tuples can share — tuples that are permutations of each other, or
// whose strings concatenate alike, stay apart on every platform — and
// the single-node engine still emits groups in first-seen order.
func TestMultiColumnGroupKeysAreExact(t *testing.T) {
	ctx := testCtx(t)
	cat := NewCatalog()
	schema := data.MustSchema(
		data.Field{Name: "a", Type: data.KindInt},
		data.Field{Name: "b", Type: data.KindInt},
		data.Field{Name: "s", Type: data.KindString},
		data.Field{Name: "u", Type: data.KindString},
		data.Field{Name: "v", Type: data.KindFloat},
	)
	row := func(a, b int64, s, u string, v float64) data.Record {
		return data.NewRecord(data.Int(a), data.Int(b), data.Str(s), data.Str(u), data.Float(v))
	}
	if err := cat.Register("t", schema, []data.Record{
		row(2, 1, "ab", "c", 1), row(1, 2, "a", "bc", 2), row(2, 1, "ab", "c", 4),
		row(1, 2, "a", "bc", 8), row(1, 1, "", "abc", 16), row(2, 1, "a", "bc", 32),
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT a, b, COUNT(*) AS n, SUM(v) AS f FROM t GROUP BY a, b", "(2, 1, 3, 37)\n(1, 2, 2, 10)\n(1, 1, 1, 16)"},
		{"SELECT s, u, SUM(v) AS f FROM t GROUP BY s, u", "(ab, c, 5)\n(a, bc, 42)\n(, abc, 16)"},
		{"SELECT u, a, s, COUNT(*) AS n FROM t GROUP BY a, s, u", "(c, 2, ab, 2)\n(bc, 1, a, 2)\n(abc, 1, , 1)\n(bc, 2, a, 1)"},
	} {
		for _, p := range ctx.Registry().Platforms() {
			recs, _, _, err := Run(ctx, cat, tc.sql, rheem.OnPlatform(p.ID()))
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.sql, p.ID(), err)
			}
			lines := make([]string, len(recs))
			for i, r := range recs {
				lines[i] = r.String()
			}
			got, want := strings.Join(lines, "\n"), tc.want
			if p.ID() != javaengine.ID { // the others promise the multiset only
				wl := strings.Split(want, "\n")
				sort.Strings(wl)
				got, want = rowsOf(recs), strings.Join(wl, "\n")
			}
			if got != want {
				t.Errorf("%s on %s returned\n%s\nwant\n%s", tc.sql, p.ID(), got, want)
			}
		}
	}
}

// A registered table is at rest in both forms: a query's scan carries the
// columns, transposed once at Register, as its hint, and serves as rows
// the records the table was registered with — not a copy made of the
// columns. A ragged table has no column form and carries no hint.
func TestCatalogTablesAtRestInBothForms(t *testing.T) {
	schema := data.MustSchema(data.Field{Name: "id", Type: data.KindInt}, data.Field{Name: "s", Type: data.KindString})
	recs := []data.Record{data.NewRecord(data.Int(1), data.Str("a")), data.NewRecord(data.Int(2), data.Null())}
	cat := NewCatalog()
	if err := cat.Register("t", schema, recs); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("ragged", schema, append(recs[:1:1], data.NewRecord(data.Int(3)))); err != nil {
		t.Fatal(err)
	}
	scan := func(sql string) *plan.Operator {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		return c.Plan.Operators()[0]
	}
	first, again := scan("SELECT id FROM t WHERE id > 1"), scan("SELECT s FROM t")
	if first.ColSource() == nil || first.ColSource() != again.ColSource() || first.ColSource().Len() != 2 || first.CardHint != 2 {
		t.Errorf("two scans of t carry %p and %p (CardHint %d), want the one batch of its 2 rows", first.ColSource(), again.ColSource(), first.CardHint)
	}
	if rows, err := first.Source()(); err != nil || len(rows) != 2 || &rows[0] != &recs[0] {
		t.Errorf("the scan's row form is not the registered records: %v, %v", rows, err)
	}
	if src := scan("SELECT id FROM ragged"); src.ColSource() != nil || src.CardHint != 2 {
		t.Errorf("a ragged table's scan carries ColSource=%v CardHint=%d, want no hint and 2", src.ColSource(), src.CardHint)
	}
	ctx := testCtx(t)
	got, _, _, err := Run(ctx, cat, "SELECT s, id FROM t WHERE id >= 1", rheem.OnPlatform(javaengine.ID))
	if err != nil || len(got) != 2 || !got[1].Field(0).IsNull() || got[1].Field(1).Int() != 2 {
		t.Errorf("query over the columns = %v, %v", got, err)
	}
}
