// Package algo says what RHEEM's physical operators compute on rows,
// once, for every platform. It has two layers. The kernels are the
// algorithmic decisions over []data.Record (HashGroup vs SortGroup,
// HashJoin vs SortMergeJoin vs IEJoin, ...), each with exactly one
// implementation to test. The evaluator, Exec (exec.go), is the one
// switch from a physical operator — its kind and the algorithm the
// optimizer chose — onto those kernels: the single-node engine calls it
// on whole datasets, the Spark simulator per partition (after
// shuffling), the relational engine on table row sets and the executor
// on the concatenated partials of a sharded atom. A run of Map, Filter and
// FlatMap operators has one more form, the fused narrow chain (Chain,
// chain.go): record by record, each output handed straight to its consumer,
// its bytes counted in the same loop where they are needed, which
// javaengine runs a window and sparksim a partition at a time. A platform owns where the rows live, how they move
// and what that costs; nothing outside this package calls a kernel
// directly. So adding a physical operator —
// the paper's extensibility story (§5.2, IEJoin) — means adding one
// kernel, its case in Exec, and declarative mappings.
package algo

import (
	"fmt"
	"sort"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Group is one key group produced by a grouping kernel.
type Group struct {
	Key     data.Value
	Records []data.Record
}

// KeyTable numbers distinct keys in first-seen order: a hash table on
// data.Hash, chaining on collisions with data.Equal as the tie-breaker.
// Values are not Go-comparable, so the built-in map cannot key them
// directly. Callers keep what they store per key in a slice indexed by
// the key's number. The zero value is an empty table.
type KeyTable struct {
	head map[uint64]int // hash → 1 + the newest key with it
	keys []data.Value
	next []int // the next older key with the same hash, or -1
}

// find returns k's number, or -1 if k was never added.
func (t *KeyTable) find(k data.Value) int { return t.probe(data.Hash(k, 0), k) }

func (t *KeyTable) probe(hv uint64, k data.Value) int {
	i := t.head[hv] - 1
	for i >= 0 && !data.Equal(t.keys[i], k) {
		i = t.next[i]
	}
	return i
}

// Keys returns the keys by number. Callers must not mutate the slice.
func (t *KeyTable) Keys() []data.Value { return t.keys }

// Add returns k's number, and whether this call is the one that gave
// k a number (then it is len(Keys())-1).
func (t *KeyTable) Add(k data.Value) (int, bool) {
	hv := data.Hash(k, 0)
	if i := t.probe(hv, k); i >= 0 {
		return i, false
	}
	if t.head == nil {
		t.head = make(map[uint64]int)
	}
	t.next = append(t.next, t.head[hv]-1)
	t.keys = append(t.keys, k)
	t.head[hv] = len(t.keys)
	return len(t.keys) - 1, true
}

// hashGroup is HashGroup plus the table that finds a key's group; keyErr
// names the key function in errors.
func hashGroup(recs []data.Record, key plan.KeyFunc, keyErr string) (*KeyTable, []Group, error) {
	t := new(KeyTable)
	var groups []Group
	for _, r := range recs {
		k, err := key(r)
		if err != nil {
			return nil, nil, fmt.Errorf("algo: %s: %w", keyErr, err)
		}
		i, added := t.Add(k)
		if added {
			groups = append(groups, Group{Key: k})
		}
		groups[i].Records = append(groups[i].Records, r)
	}
	return t, groups, nil
}

// HashGroup groups records by key using hashing. Groups come out in the
// order their keys were first seen and records keep their input order
// within a group.
func HashGroup(recs []data.Record, key plan.KeyFunc) ([]Group, error) {
	_, groups, err := hashGroup(recs, key, "group key")
	return groups, err
}

// SortGroup groups records by key using a stable sort; groups come out
// in ascending key order and records keep their input order within a
// group. Keys order under data.Compare, whose zero is data.Equal within
// a kind, so sorting and hashing form the same groups.
func SortGroup(recs []data.Record, key plan.KeyFunc) ([]Group, error) {
	type keyed struct {
		k data.Value
		r data.Record
	}
	ks := make([]keyed, len(recs))
	for i, r := range recs {
		k, err := key(r)
		if err != nil {
			return nil, fmt.Errorf("algo: group key: %w", err)
		}
		ks[i] = keyed{k, r}
	}
	sort.SliceStable(ks, func(i, j int) bool { return data.Compare(ks[i].k, ks[j].k) < 0 })
	var out []Group
	for i := 0; i < len(ks); {
		j := i
		for j < len(ks) && data.Compare(ks[i].k, ks[j].k) == 0 {
			j++
		}
		g := Group{Key: ks[i].k, Records: make([]data.Record, 0, j-i)}
		for _, kr := range ks[i:j] {
			g.Records = append(g.Records, kr.r)
		}
		out = append(out, g)
		i = j
	}
	return out, nil
}

// ReduceByKey folds each record into its key's accumulator with f, in
// input order, and returns one record per key; the groups are never
// built. Keys are told apart by data.Equal. Accumulators come out in the
// order their keys were first seen, or in ascending key order when
// sorted is set (physical.SortGroupBy). The first key or reduce failure
// in input order is the one reported.
func ReduceByKey(recs []data.Record, key plan.KeyFunc, f plan.ReduceFunc, sorted bool) ([]data.Record, error) {
	fd := &fold{keyed: true, key: key, f: f, sorted: sorted, out: []data.Record{}} // empty input yields an empty result, not nil
	for _, r := range recs {
		if err := fd.add(r); err != nil {
			return nil, err
		}
	}
	return fd.result(), nil
}

// fold is ReduceByKey or Reduce a record at a time: the records add is
// handed, in order, are folded as they come, so whoever produces them
// need not gather them first.
type fold struct {
	keyed  bool // ReduceByKey; otherwise Reduce
	key    plan.KeyFunc
	f      plan.ReduceFunc
	sorted bool
	t      KeyTable      // ReduceByKey's keys
	out    []data.Record // ReduceByKey's accumulators by key number; Reduce's one
}

// newFold is the fold of op, a ReduceByKey or a Reduce.
func newFold(op *physical.Operator) *fold {
	lop := op.Logical
	if lop.Kind() == plan.KindReduceByKey {
		return &fold{keyed: true, key: lop.Key, f: lop.Reduce(), sorted: op.Algo == physical.SortGroupBy, out: []data.Record{}}
	}
	return &fold{f: lop.Reduce()}
}

func (fd *fold) add(r data.Record) error {
	i, added := 0, len(fd.out) == 0
	if fd.keyed {
		k, err := fd.key(r)
		if err != nil {
			return fmt.Errorf("algo: group key: %w", err)
		}
		i, added = fd.t.Add(k)
	}
	if added {
		fd.out = append(fd.out, r)
		return nil
	}
	var err error
	if fd.out[i], err = fd.f(fd.out[i], r); err != nil {
		return fmt.Errorf("algo: reduce: %w", err)
	}
	return nil
}

// result is what the fold makes of the records added.
func (fd *fold) result() []data.Record {
	if fd.sorted {
		sort.Stable(&byKey{fd.t.keys, fd.out})
	}
	return fd.out
}

// byKey orders accumulators by their keys.
type byKey struct {
	keys []data.Value
	recs []data.Record
}

func (s *byKey) Len() int           { return len(s.keys) }
func (s *byKey) Less(i, j int) bool { return data.Compare(s.keys[i], s.keys[j]) < 0 }
func (s *byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
}

// Reduce folds an entire dataset pairwise. An empty input yields an
// empty output (no identity element is assumed).
func Reduce(recs []data.Record, f plan.ReduceFunc) ([]data.Record, error) {
	fd := &fold{f: f}
	for _, r := range recs {
		if err := fd.add(r); err != nil {
			return nil, err
		}
	}
	return fd.result(), nil
}

// SortBy orders records by key. The sort is stable.
func SortBy(recs []data.Record, key plan.KeyFunc, desc bool) ([]data.Record, error) {
	type keyed struct {
		k data.Value
		r data.Record
	}
	ks := make([]keyed, len(recs))
	for i, r := range recs {
		k, err := key(r)
		if err != nil {
			return nil, fmt.Errorf("algo: sort key: %w", err)
		}
		ks[i] = keyed{k, r}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		c := data.Compare(ks[i].k, ks[j].k)
		if desc {
			return c > 0
		}
		return c < 0
	})
	out := make([]data.Record, len(ks))
	for i, kr := range ks {
		out[i] = kr.r
	}
	return out, nil
}

// Distinct removes duplicate records (under data.EqualRecords) keeping
// first occurrences in input order.
func Distinct(recs []data.Record) []data.Record {
	seen := make(map[uint64][]data.Record, len(recs)/2)
	out := make([]data.Record, 0, len(recs))
outer:
	for _, r := range recs {
		h := data.HashRecord(r, 0)
		for _, prev := range seen[h] {
			if data.EqualRecords(prev, r) {
				continue outer
			}
		}
		seen[h] = append(seen[h], r)
		out = append(out, r)
	}
	return out
}

// HashJoin equi-joins two datasets, building a hash table on the right
// input and probing with the left. Output records are Concat(l, r) in
// left-input order.
func HashJoin(l, r []data.Record, lkey, rkey plan.KeyFunc) ([]data.Record, error) {
	build, groups, err := hashGroup(r, rkey, "join build key")
	if err != nil {
		return nil, err
	}
	var out []data.Record
	for _, lr := range l {
		k, err := lkey(lr)
		if err != nil {
			return nil, fmt.Errorf("algo: join probe key: %w", err)
		}
		if i := build.find(k); i >= 0 {
			for _, rr := range groups[i].Records {
				out = append(out, data.Concat(lr, rr))
			}
		}
	}
	return out, nil
}

// SortMergeJoin equi-joins two datasets by sorting both sides on their
// keys and merging. Output order is ascending key order.
func SortMergeJoin(l, r []data.Record, lkey, rkey plan.KeyFunc) ([]data.Record, error) {
	lg, err := SortGroup(l, lkey)
	if err != nil {
		return nil, err
	}
	rg, err := SortGroup(r, rkey)
	if err != nil {
		return nil, err
	}
	var out []data.Record
	i, j := 0, 0
	for i < len(lg) && j < len(rg) {
		c := data.Compare(lg[i].Key, rg[j].Key)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			for _, lr := range lg[i].Records {
				for _, rr := range rg[j].Records {
					out = append(out, data.Concat(lr, rr))
				}
			}
			i++
			j++
		}
	}
	return out, nil
}

// NestedLoopJoin joins two datasets on an arbitrary predicate by
// comparing every pair — the baseline theta-join the paper's IEJoin
// experiment improves on.
func NestedLoopJoin(l, r []data.Record, pred plan.PredFunc) ([]data.Record, error) {
	var out []data.Record
	for _, lr := range l {
		for _, rr := range r {
			ok, err := pred(lr, rr)
			if err != nil {
				return nil, fmt.Errorf("algo: theta predicate: %w", err)
			}
			if ok {
				out = append(out, data.Concat(lr, rr))
			}
		}
	}
	return out, nil
}

// Cartesian emits the cross product of two datasets.
func Cartesian(l, r []data.Record) []data.Record {
	out := make([]data.Record, 0, len(l)*len(r))
	for _, lr := range l {
		for _, rr := range r {
			out = append(out, data.Concat(lr, rr))
		}
	}
	return out
}
