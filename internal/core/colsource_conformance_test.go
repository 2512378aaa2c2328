// Conformance of the columnar source (plan.SourceColumns): records at rest
// in column form. Its SourceFunc is derived from the batch, and only the
// java engine reads the hint — the columns as they stand when every reader
// of the source in its atom is hinted, rows otherwise — so the reference is
// the same plan over a plain row source, on the same platform.

package core

import (
	"sync"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// sourceConfCases are the ways a source is read that decide, or must not
// be upset by, which of its forms the java engine takes: by a hinted and
// an un-hinted operator at once, as one of two sources of a join, from
// inside a loop body on every iteration, and across window boundaries with
// nulls among the values. A loop body's own source takes the cell's form,
// like the plan's.
func sourceConfCases() []bcase {
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	return []bcase{
		one("hinted-and-unhinted-readers", confRecords(97, 0), func(b *builder, src *plan.Operator) {
			f := b.FilterWhere(src, 0, plan.Less, data.Int(50))
			b.Collect(b.Union(b.MapColumns(f, confColumnMap), b.Map(src, tag)))
		}),
		{name: "two-sources-into-join", recs: [][]data.Record{confRecords(97, 0), confRecords(29, 5)}, build: func(b *builder, s []*plan.Operator) {
			l, r := b.FilterWhere(s[0], 0, plan.GreaterEq, data.Int(40)), b.ProjectCols(b.FilterWhere(s[1], 0, plan.Less, data.Int(30)), 1, 0)
			b.Collect(b.Join(l, r, plan.FieldKey(1), plan.FieldKey(0)))
		}},
		one("source-in-loop-body", []data.Record{data.NewRecord(data.Int(1))}, func(b *builder, src *plan.Operator) {
			// Each pass adds the body source's ids below 30 to the running sum.
			bb := b.body("body")
			ids := bb.ProjectCols(bb.FilterWhere(bb.source("ids", confRecords(40, 0)), 0, plan.Less, data.Int(30)), 0)
			bb.Collect(bb.AggregateCols(bb.Union(bb.LoopInput("sum"), ids), plan.AggSum))
			b.Collect(b.Repeat(src, 3, bb.MustBuild()))
		}),
		one("windows-to-sink", mapConfRecords(8193), func(b *builder, src *plan.Operator) {
			b.Collect(b.FilterWhere(src, 1, plan.GreaterEq, data.Float(30))) // value is null every thousandth row
		}),
		one("windows-to-group", mapConfRecords(8193), func(b *builder, src *plan.Operator) {
			b.Collect(b.GroupAggregate(b.FilterWhere(src, 2, plan.NotEq, data.Int(0)), []int{2},
				plan.GroupCol{Fn: plan.GroupKey, Field: 2}, plan.GroupCol{Fn: plan.GroupCount, Field: 1}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 3}))
		}),
	}
}

// TestColumnarSourceMatchesRowSource: a plan over sources at rest in
// column form gives the bytes — or the error — it gives over row sources:
// in one atom with its readers (the in-atom battery, the cases above, the
// column maps over two windows; ragged records a batch carries only as
// rows) and alone in an atom feeding another platform, where it leaves as
// rows.
func TestColumnarSourceMatchesRowSource(t *testing.T) {
	inAtom := append(inAtomBattery(), sourceConfCases()...)
	for _, c := range mapConfCases() {
		c.name, c.recs = "map-columns-"+c.name, [][]data.Record{mapConfRecords(8193)}
		inAtom = append(inAtom, c)
	}
	check := func(prefix string, p place, cases []bcase) {
		for i := range cases {
			cases[i].name = prefix + cases[i].name
		}
		newBattery(t, cell{src: rows}, grid(confPlatforms, cell{form: hinted, src: columns, place: p})).run(t, cases)
	}
	check("in-atom/", pinned, inAtom)
	check("fed/", fed, fullBattery())
}

// TestSourceColumnsRowsMadeOnce: the row form of a columnar source is the
// batch's records, made when first asked for and the same slice to every
// reader.
func TestSourceColumnsRowsMadeOnce(t *testing.T) {
	recs := confRecords(5, 0)
	b := plan.NewBuilder("once")
	src := b.SourceColumns("src", batch.FromRecords(recs), nil)
	b.Collect(src)
	b.MustBuild()
	if src.ColSource() == nil || src.CardHint != 5 {
		t.Fatalf("SourceColumns set ColSource=%v CardHint=%d, want the batch and 5", src.ColSource(), src.CardHint)
	}
	// Several readers at once: an abandoned attempt of a retried atom may
	// still be reading when the next one starts.
	var wg sync.WaitGroup
	rows := make([][]data.Record, 8)
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], _ = src.Source()()
		}()
	}
	wg.Wait()
	if canonical(t, rows[0], true) != canonical(t, recs, true) {
		t.Fatalf("row form = %v; want the records the batch was built from", rows[0])
	}
	for _, r := range rows[1:] {
		if &r[0] != &rows[0][0] {
			t.Fatal("the row form was made twice")
		}
	}
	ragged := plan.NewBuilder("ragged")
	if src := ragged.SourceColumns("src", batch.FromRecords([]data.Record{data.NewRecord(data.Int(1)), data.NewRecord()}), nil); src.ColSource() != nil {
		t.Errorf("a row-backed batch has no column form, yet the source carries the hint %v", src.ColSource())
	}
}
