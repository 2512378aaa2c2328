package algo

import (
	"errors"
	"testing"

	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func intRecs(vals ...int64) []data.Record {
	out := make([]data.Record, len(vals))
	for i, v := range vals {
		out[i] = data.NewRecord(data.Int(v))
	}
	return out
}

func kvRecs(pairs ...int64) []data.Record {
	out := make([]data.Record, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, data.NewRecord(data.Int(pairs[i]), data.Int(pairs[i+1])))
	}
	return out
}

func groupsByKey(gs []Group) map[int64][]data.Record {
	out := map[int64][]data.Record{}
	for _, g := range gs {
		out[g.Key.Int()] = g.Records
	}
	return out
}

func TestHashGroupAndSortGroupAgree(t *testing.T) {
	recs := kvRecs(1, 10, 2, 20, 1, 11, 3, 30, 2, 21, 1, 12)
	hg, err := HashGroup(recs, plan.FieldKey(0))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := SortGroup(recs, plan.FieldKey(0))
	if err != nil {
		t.Fatal(err)
	}
	hm, sm := groupsByKey(hg), groupsByKey(sg)
	if len(hm) != 3 || len(sm) != 3 {
		t.Fatalf("group counts: hash=%d sort=%d", len(hm), len(sm))
	}
	for k := range hm {
		if len(hm[k]) != len(sm[k]) {
			t.Errorf("key %d: hash %d records, sort %d", k, len(hm[k]), len(sm[k]))
		}
	}
	// HashGroup yields keys in first-seen order.
	recs2 := kvRecs(3, 0, 1, 0, 3, 1, 2, 0)
	if g, _ := HashGroup(recs2, plan.FieldKey(0)); len(g) != 3 || g[0].Key.Int() != 3 || g[1].Key.Int() != 1 || g[2].Key.Int() != 2 || len(g[0].Records) != 2 {
		t.Errorf("HashGroup = %v, want keys 3, 1, 2", g)
	}
	// SortGroup yields ascending keys and stable within-group order.
	if !(sg[0].Key.Int() == 1 && sg[1].Key.Int() == 2 && sg[2].Key.Int() == 3) {
		t.Error("SortGroup keys not ascending")
	}
	vals := sg[0].Records
	if vals[0].Field(1).Int() != 10 || vals[1].Field(1).Int() != 11 || vals[2].Field(1).Int() != 12 {
		t.Error("SortGroup not stable within group")
	}
}

func TestGroupKeyError(t *testing.T) {
	boom := errors.New("boom")
	bad := func(data.Record) (data.Value, error) { return data.Null(), boom }
	if _, err := HashGroup(intRecs(1), bad); !errors.Is(err, boom) {
		t.Error("HashGroup did not propagate key error")
	}
	if _, err := SortGroup(intRecs(1), bad); !errors.Is(err, boom) {
		t.Error("SortGroup did not propagate key error")
	}
}

func TestReduceByKeyAndReduce(t *testing.T) {
	recs := kvRecs(2, 7, 1, 10, 1, 5)
	red, err := ReduceByKey(recs, plan.FieldKey(0), plan.SumField(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 2 || red[0].Field(1).Int() != 15 || red[1].Field(1).Int() != 7 {
		t.Errorf("ReduceByKey sorted = %v", red)
	}
	red, err = ReduceByKey(recs, plan.FieldKey(0), plan.SumField(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 2 || red[0].Field(1).Int() != 7 || red[1].Field(1).Int() != 15 {
		t.Errorf("ReduceByKey = %v, want first-seen key order", red)
	}
	if red, err := ReduceByKey(nil, plan.FieldKey(0), plan.SumField(1), true); err != nil || red == nil || len(red) != 0 {
		t.Errorf("ReduceByKey on empty input = %v, %v; want empty, non-nil", red, err)
	}

	all, err := Reduce(intRecs(1, 2, 3, 4), plan.SumField(0))
	if err != nil || len(all) != 1 || all[0].Field(0).Int() != 10 {
		t.Errorf("Reduce = %v, %v", all, err)
	}
	empty, err := Reduce(nil, plan.SumField(0))
	if err != nil || len(empty) != 0 {
		t.Error("Reduce on empty input should be empty")
	}
}

func TestSortBy(t *testing.T) {
	recs := kvRecs(3, 0, 1, 1, 2, 2, 1, 3)
	asc, err := SortBy(recs, plan.FieldKey(0), false)
	if err != nil {
		t.Fatal(err)
	}
	wantAsc := []int64{1, 1, 2, 3}
	for i, w := range wantAsc {
		if asc[i].Field(0).Int() != w {
			t.Fatalf("asc[%d] = %s", i, asc[i])
		}
	}
	// Stability: the two key-1 records keep input order.
	if asc[0].Field(1).Int() != 1 || asc[1].Field(1).Int() != 3 {
		t.Error("SortBy not stable")
	}
	desc, _ := SortBy(recs, plan.FieldKey(0), true)
	if desc[0].Field(0).Int() != 3 || desc[3].Field(0).Int() != 1 {
		t.Error("descending sort wrong")
	}
	// Input untouched.
	if recs[0].Field(0).Int() != 3 {
		t.Error("SortBy mutated input")
	}
}

func TestDistinct(t *testing.T) {
	recs := intRecs(1, 2, 1, 3, 2, 1)
	got := Distinct(recs)
	if len(got) != 3 {
		t.Fatalf("Distinct kept %d", len(got))
	}
	for i, w := range []int64{1, 2, 3} {
		if got[i].Field(0).Int() != w {
			t.Errorf("Distinct[%d] = %s (first-occurrence order lost)", i, got[i])
		}
	}
	if len(Distinct(nil)) != 0 {
		t.Error("Distinct(nil) non-empty")
	}
}

func joinKeySet(recs []data.Record) map[string]int {
	m := map[string]int{}
	for _, r := range recs {
		m[r.String()]++
	}
	return m
}

func TestJoinsAgree(t *testing.T) {
	l := kvRecs(1, 100, 2, 200, 2, 201, 4, 400)
	r := kvRecs(2, -2, 3, -3, 2, -22, 1, -1)
	hj, err := HashJoin(l, r, plan.FieldKey(0), plan.FieldKey(0))
	if err != nil {
		t.Fatal(err)
	}
	smj, err := SortMergeJoin(l, r, plan.FieldKey(0), plan.FieldKey(0))
	if err != nil {
		t.Fatal(err)
	}
	nlj, err := NestedLoopJoin(l, r, func(a, b data.Record) (bool, error) {
		return data.Equal(a.Field(0), b.Field(0)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// key 1: 1 pair, key 2: 2*2 = 4 pairs → 5 total.
	if len(hj) != 5 || len(smj) != 5 || len(nlj) != 5 {
		t.Fatalf("join sizes hash=%d smj=%d nlj=%d, want 5", len(hj), len(smj), len(nlj))
	}
	a, b, c := joinKeySet(hj), joinKeySet(smj), joinKeySet(nlj)
	for k := range a {
		if a[k] != b[k] || a[k] != c[k] {
			t.Errorf("join outputs disagree on %s", k)
		}
	}
	// Join output is the concatenation of both records.
	if hj[0].Len() != 4 {
		t.Errorf("join output arity %d", hj[0].Len())
	}
}

func TestJoinEmptySides(t *testing.T) {
	l := kvRecs(1, 1)
	if got, _ := HashJoin(l, nil, plan.FieldKey(0), plan.FieldKey(0)); len(got) != 0 {
		t.Error("HashJoin with empty right non-empty")
	}
	if got, _ := SortMergeJoin(nil, l, plan.FieldKey(0), plan.FieldKey(0)); len(got) != 0 {
		t.Error("SortMergeJoin with empty left non-empty")
	}
}

func TestCartesian(t *testing.T) {
	got := Cartesian(intRecs(1, 2), intRecs(10, 20, 30))
	if len(got) != 6 {
		t.Fatalf("Cartesian size %d", len(got))
	}
	if got[0].Field(0).Int() != 1 || got[0].Field(1).Int() != 10 {
		t.Errorf("Cartesian[0] = %s", got[0])
	}
}

// TestSortKernelsCompareIntKeysExactly: the sort-based kernels order keys
// under data.Compare, which is exact, so int keys beyond 2⁵³ — equal to
// their neighbours once widened to float64 — form the groups and the
// join pairs the hash-based kernels form.
func TestSortKernelsCompareIntKeysExactly(t *testing.T) {
	big := int64(1) << 53
	recs := []data.Record{
		data.NewRecord(data.Int(big+1), data.Int(1)), data.NewRecord(data.Int(big), data.Int(2)),
		data.NewRecord(data.Int(big+1), data.Int(4)), data.NewRecord(data.Int(big), data.Int(8)),
	}
	groups, err := SortGroup(recs, plan.FieldKey(0))
	if err != nil || len(groups) != 2 || groups[0].Key.Int() != big || len(groups[0].Records) != 2 || groups[1].Key.Int() != big+1 {
		t.Errorf("SortGroup formed %v, %v; want the groups of 2^53 and 2^53+1 in that order", groups, err)
	}
	sum := func(a, b data.Record) (data.Record, error) {
		return data.NewRecord(a.Field(0), data.Int(a.Field(1).Int()+b.Field(1).Int())), nil
	}
	out, err := ReduceByKey(recs, plan.FieldKey(0), sum, true)
	if err != nil || len(out) != 2 || out[0].String() != "(9007199254740992, 10)" || out[1].String() != "(9007199254740993, 5)" {
		t.Errorf("sorted ReduceByKey returned %v, %v", out, err)
	}
	hashed, err := HashJoin(recs, recs[:2], plan.FieldKey(0), plan.FieldKey(0))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := SortMergeJoin(recs, recs[:2], plan.FieldKey(0), plan.FieldKey(0))
	if err != nil || len(merged) != len(hashed) || len(merged) != 4 {
		t.Errorf("SortMergeJoin paired %d rows (%v), HashJoin %d", len(merged), err, len(hashed))
	}
}
