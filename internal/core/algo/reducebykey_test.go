package algo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// reduceGroups is the fold ReduceByKey replaced — each materialised
// group folded pairwise — kept as the reference it is compared against.
func reduceGroups(groups []Group, f plan.ReduceFunc) ([]data.Record, error) {
	out := make([]data.Record, 0, len(groups))
	for _, g := range groups {
		acc := g.Records[0]
		var err error
		for _, r := range g.Records[1:] {
			if acc, err = f(acc, r); err != nil {
				return nil, err
			}
		}
		out = append(out, acc)
	}
	return out, nil
}

// concat is a non-commutative reduce: the order records were folded in
// is readable off the result.
func concat(a, b data.Record) (data.Record, error) {
	return data.NewRecord(a.Field(0), data.Str(a.Field(1).Str()+"|"+b.Field(1).Str())), nil
}

// randomKey draws from a small pool so duplicates are common: null,
// bools, ints and numerically equal floats, ±0, strings (one empty),
// vectors (nil and empty among them).
func randomKey(rng *rand.Rand) data.Value {
	switch rng.Intn(8) {
	case 0:
		return data.Null()
	case 1:
		return data.Bool(rng.Intn(2) == 0)
	case 2, 3:
		return data.Int(int64(rng.Intn(5) - 2))
	case 4:
		return data.Float(float64(rng.Intn(5)-2) / 2)
	case 5:
		return data.Float(math.Copysign(0, -1))
	case 6:
		return data.Str([]string{"", "a", "b", "ab"}[rng.Intn(4)])
	default:
		return data.Vec([][]float64{nil, {}, {1}, {1, 2}, {math.Copysign(0, -1)}, {0}}[rng.Intn(6)])
	}
}

func renderAll(recs []data.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%s:%s", r.Field(0).Kind(), r)
	}
	return out
}

func TestReduceByKeyMatchesGroupThenReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	for trial := 0; trial < 300; trial++ {
		recs := make([]data.Record, rng.Intn(60))
		for i := range recs {
			recs[i] = data.NewRecord(randomKey(rng), data.Str(fmt.Sprint(i)))
		}
		hg, err := HashGroup(recs, plan.FieldKey(0))
		if err != nil {
			t.Fatal(err)
		}
		wantHash, _ := reduceGroups(hg, concat)
		sg, err := SortGroup(recs, plan.FieldKey(0))
		if err != nil {
			t.Fatal(err)
		}
		wantSort, _ := reduceGroups(sg, concat)

		gotHash, err := ReduceByKey(recs, plan.FieldKey(0), concat, false)
		if err != nil {
			t.Fatal(err)
		}
		gotSort, err := ReduceByKey(recs, plan.FieldKey(0), concat, true)
		if err != nil {
			t.Fatal(err)
		}

		// Sort: the same sequence.
		if g, w := renderAll(gotSort), renderAll(wantSort); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Fatalf("trial %d, sorted:\n got  %v\n want %v", trial, g, w)
		}
		// Hash: the same multiset, in first-seen key order.
		g, w := renderAll(gotHash), renderAll(wantHash)
		first := append([]string(nil), g...)
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Fatalf("trial %d, hash:\n got  %v\n want %v", trial, g, w)
		}
		var seen []data.Value
		for _, r := range recs {
			k := r.Field(0)
			dup := false
			for _, s := range seen {
				dup = dup || data.Equal(s, k)
			}
			if !dup {
				seen = append(seen, k)
			}
		}
		if len(seen) != len(gotHash) {
			t.Fatalf("trial %d: %d accumulators for %d distinct keys", trial, len(gotHash), len(seen))
		}
		for i, k := range seen {
			if !data.Equal(gotHash[i].Field(0), k) {
				t.Fatalf("trial %d: accumulator %d has key %s, first-seen order wants %s (%v)", trial, i, gotHash[i].Field(0), k, first)
			}
		}
	}
}

// The first failure in input order is the one reported, whether it is
// the key function's or the reduce's.
func TestReduceByKeyErrorPrecedence(t *testing.T) {
	keyBoom, reduceBoom := errors.New("key boom"), errors.New("reduce boom")
	run := func(keyFailsAt, reduceFailsAt int64, sorted bool) error {
		recs := kvRecs(1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5)
		key := func(r data.Record) (data.Value, error) {
			if r.Field(1).Int() == keyFailsAt {
				return data.Null(), keyBoom
			}
			return r.Field(0), nil
		}
		f := func(a, b data.Record) (data.Record, error) {
			if b.Field(1).Int() == reduceFailsAt {
				return data.Record{}, reduceBoom
			}
			return a, nil
		}
		_, err := ReduceByKey(recs, key, f, sorted)
		return err
	}
	for _, sorted := range []bool{false, true} {
		if err := run(4, 2, sorted); !errors.Is(err, reduceBoom) || !strings.HasPrefix(err.Error(), "algo: reduce: ") {
			t.Errorf("sorted=%v: reduce fails first, got %v", sorted, err)
		}
		if err := run(2, 4, sorted); !errors.Is(err, keyBoom) || !strings.HasPrefix(err.Error(), "algo: group key: ") {
			t.Errorf("sorted=%v: key fails first, got %v", sorted, err)
		}
		if err := run(-1, -1, sorted); err != nil {
			t.Errorf("sorted=%v: no failure, got %v", sorted, err)
		}
	}
}

// Equal(Float(0), Float(-0)) holds, so every kernel must put ±0 in one
// group whichever algorithm the optimizer picked.
func TestSignedZeroKeysGroupTogether(t *testing.T) {
	negZero := math.Copysign(0, -1)
	recs := []data.Record{
		data.NewRecord(data.Float(0), data.Str("a")),
		data.NewRecord(data.Float(negZero), data.Str("b")),
		data.NewRecord(data.Float(1), data.Str("c")),
		data.NewRecord(data.Float(negZero), data.Str("d")),
	}
	key := plan.FieldKey(0)
	reduce := func(sorted bool) func() (int, error) {
		return func() (int, error) {
			out, err := ReduceByKey(recs, key, concat, sorted)
			if err == nil && out[0].Field(1).Str() != "a|b|d" {
				err = fmt.Errorf("zero accumulator folded %q", out[0].Field(1).Str())
			}
			return len(out), err
		}
	}
	groupers := map[string]func() (int, error){
		"HashGroup":        func() (int, error) { g, err := HashGroup(recs, key); return len(g), err },
		"SortGroup":        func() (int, error) { g, err := SortGroup(recs, key); return len(g), err },
		"ReduceByKey/hash": reduce(false),
		"ReduceByKey/sort": reduce(true),
	}
	for name, run := range groupers {
		if n, err := run(); err != nil || n != 2 {
			t.Errorf("%s: %d groups, err %v; want 2", name, n, err)
		}
	}

	right := []data.Record{
		data.NewRecord(data.Float(negZero), data.Str("x")),
		data.NewRecord(data.Float(0), data.Str("y")),
	}
	hj, err := HashJoin(recs, right, key, key)
	if err != nil {
		t.Fatal(err)
	}
	smj, err := SortMergeJoin(recs, right, key, key)
	if err != nil {
		t.Fatal(err)
	}
	// Three zero-keyed left rows × two zero-keyed right rows.
	if len(hj) != 6 || len(smj) != 6 {
		t.Errorf("join sizes hash=%d sort-merge=%d, want 6", len(hj), len(smj))
	}
}

// BenchmarkReduceByKey folds n two-field records: a few hot keys (the
// aggregation shape) and all-distinct keys (the worst case for the
// accumulator table).
func BenchmarkReduceByKey(b *testing.B) {
	const n = 1 << 18
	for _, c := range []struct {
		name string
		keys int
	}{{"keys=32", 32}, {"keys=n", n}} {
		recs := make([]data.Record, n)
		for i := range recs {
			recs[i] = data.NewRecord(data.Int(int64(i%c.keys)), data.Int(int64(i)))
		}
		first := func(a, _ data.Record) (data.Record, error) { return a, nil }
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(data.TotalBytes(recs))
			for i := 0; i < b.N; i++ {
				out, err := ReduceByKey(recs, plan.FieldKey(0), first, false)
				if err != nil || len(out) != c.keys {
					b.Fatal(len(out), err)
				}
			}
		})
	}
}
