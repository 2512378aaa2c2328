// Conformance of the columnar source (plan.SourceColumns): records at rest
// in column form. Its SourceFunc is derived from the batch, and only the
// java engine reads the hint — the columns as they stand when every reader
// of the source in its atom is hinted, rows otherwise — so the reference is
// the same plan over a plain row source, on the same platform.

package core

import (
	"bytes"
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
// nulls among the values. Sources a case adds itself are in the form
// columns says, like the one it is handed.
func sourceConfCases(columns bool) []inAtomCase {
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	return []inAtomCase{
		{"hinted-and-unhinted-readers", confRecords(97, 0), func(b *plan.Builder, src *plan.Operator) {
			f := b.FilterWhere(src, 0, plan.Less, data.Int(50))
			b.Collect(b.Union(b.MapColumns(f, confColumnMap), b.Map(src, tag)))
		}},
		{"two-sources-into-join", confRecords(97, 0), func(b *plan.Builder, src *plan.Operator) {
			right := confSource(b, "right", confRecords(29, 5), columns)
			l, r := b.FilterWhere(src, 0, plan.GreaterEq, data.Int(40)), b.ProjectCols(b.FilterWhere(right, 0, plan.Less, data.Int(30)), 1, 0)
			b.Collect(b.Join(l, r, plan.FieldKey(1), plan.FieldKey(0)))
		}},
		{"source-in-loop-body", []data.Record{data.NewRecord(data.Int(1))}, func(b *plan.Builder, src *plan.Operator) {
			// Each pass adds the body source's ids below 30 to the running sum.
			bb := plan.NewBodyBuilder("body")
			ids := bb.ProjectCols(bb.FilterWhere(confSource(bb, "ids", confRecords(40, 0), columns), 0, plan.Less, data.Int(30)), 0)
			bb.Collect(bb.AggregateCols(bb.Union(bb.LoopInput("sum"), ids), plan.AggSum))
			b.Collect(b.Repeat(src, 3, bb.MustBuild()))
		}},
		{"windows-to-sink", mapConfRecords(8193), func(b *plan.Builder, src *plan.Operator) {
			b.Collect(b.FilterWhere(src, 1, plan.GreaterEq, data.Float(30))) // value is null every thousandth row
		}},
		{"windows-to-group", mapConfRecords(8193), func(b *plan.Builder, src *plan.Operator) {
			b.Collect(b.GroupAggregate(b.FilterWhere(src, 2, plan.NotEq, data.Int(0)), []int{2},
				plan.GroupCol{Fn: plan.GroupKey, Field: 2}, plan.GroupCol{Fn: plan.GroupCount, Field: 1}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 3}))
		}},
	}
}

// sharedSources, while a test sets it, makes confSource hand every plan
// over one record slice the same batch — as every job over a catalog table
// or of one built-in spec reads the same batch — and keeps the batches for
// checkSharedSources.
var sharedSources map[sourceKey]sharedSource

type sourceKey struct {
	first *data.Record
	n     int
}

type sharedSource struct {
	recs []data.Record
	cols *batch.Batch
}

// columnsOf is recs at rest in column form: while sharedSources is set,
// the one batch every plan over recs reads.
func columnsOf(recs []data.Record) *batch.Batch {
	if sharedSources == nil || len(recs) == 0 {
		return batch.FromRecords(recs)
	}
	k := sourceKey{&recs[0], len(recs)}
	s, ok := sharedSources[k]
	if !ok {
		s = sharedSource{recs, batch.FromRecords(recs)}
		sharedSources[k] = s
	}
	return s.cols
}

// checkSharedSources fails t for every shared batch that no longer encodes,
// row by row in order, to the records it was made from: a plan that read it
// wrote to its columns.
func checkSharedSources(t *testing.T) {
	t.Helper()
	inOrder := func(recs []data.Record) []byte {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, s := range sharedSources {
		if !bytes.Equal(inOrder(s.cols.ToRecords()), inOrder(s.recs)) {
			t.Errorf("a source batch of %d rows changed under the plans that read it", len(s.recs))
		}
	}
}

// TestColumnarSourceMatchesRowSource: a plan whose sources keep their
// records at rest in column form gives, on every platform and GOMAXPROCS,
// the bytes — or the error — it gives over row sources. In one atom with
// its readers (the hinted battery: empty, one row, nulls, a mixed-kind
// column, ragged records, which a batch only carries as rows; the column
// maps over two windows; the cases above) and alone in an atom feeding
// another platform (the cross-platform battery, its join of two sources
// included), where it leaves as rows. A case's plans read one batch per
// source, as concurrent jobs read a catalog table or a built-in's input,
// and each batch must encode to the same bytes after every platform ran
// them: nothing downstream of a shared source may write to its columns.
func TestColumnarSourceMatchesRowSource(t *testing.T) {
	inAtom := append(inAtomBattery(), sourceConfCases(true)...)
	rowTwins := append(inAtomBattery(), sourceConfCases(false)...)
	for _, c := range mapConfCases(true) {
		c.name, c.recs = "map-columns-"+c.name, mapConfRecords(8193)
		inAtom, rowTwins = append(inAtom, c), append(rowTwins, c)
	}
	sharedSources = map[sourceKey]sharedSource{}
	defer func() { sharedSources = nil }()
	for i, c := range inAtom {
		t.Run("in-atom/"+c.name, func(t *testing.T) {
			clear(sharedSources)
			defer checkSharedSources(t)
			for _, target := range confPlatforms {
				for _, workers := range confWorkers {
					setWorkers(t, workers)
					want, wantErr := runInAtom(t, rowTwins[i], target, true, false)
					got, gotErr := runInAtom(t, c, target, true, true)
					switch {
					case (wantErr == nil) != (gotErr == nil), wantErr != nil && wantErr.Error() != gotErr.Error():
						t.Errorf("on %s at GOMAXPROCS %d: failed with %v over rows, %v over columns", target, workers, wantErr, gotErr)
					case got != want:
						t.Errorf("on %s at GOMAXPROCS %d: the columnar source diverges from the row source", target, workers)
					}
				}
			}
		})
	}
	for _, c := range fullBattery() {
		t.Run("fed/"+c.name, func(t *testing.T) {
			clear(sharedSources)
			defer checkSharedSources(t)
			atRest := c
			atRest.columns = true
			for _, target := range confPlatforms {
				for _, workers := range confWorkers {
					setWorkers(t, workers)
					if runConformance(t, atRest, target, true) != runConformance(t, c, target, true) {
						t.Errorf("on %s at GOMAXPROCS %d: the columnar source diverges from the row source", target, workers)
					}
				}
			}
		})
	}
}

// TestSourceColumnsRowsMadeOnce: the row form of a columnar source is the
// batch's records, made when first asked for and the same slice to every
// reader.
func TestSourceColumnsRowsMadeOnce(t *testing.T) {
	recs := confRecords(5, 0)
	b := plan.NewBuilder("once")
	src := confSource(b, "src", recs, true)
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
	if canonical(t, rows[0]) != canonical(t, recs) {
		t.Fatalf("row form = %v; want the records the batch was built from", rows[0])
	}
	for _, r := range rows[1:] {
		if &r[0] != &rows[0][0] {
			t.Fatal("the row form was made twice")
		}
	}
	ragged := plan.NewBuilder("ragged")
	if src := confSource(ragged, "src", []data.Record{data.NewRecord(data.Int(1)), data.NewRecord()}, true); src.ColSource() != nil {
		t.Errorf("a row-backed batch has no column form, yet the source carries the hint %v", src.ColSource())
	}
}
