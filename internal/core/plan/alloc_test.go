// Not built under the race detector: its instrumentation allocates on the
// program's behalf.

//go:build !race

package plan

import (
	"runtime"
	"testing"
	"unsafe"

	"rheem/internal/core/batch"
	"rheem/internal/data"
)

// TestBuilderAllocatesPerOperator: building a plan costs one object per
// operator — the operator, its inputs inline — and a constant per plan
// (builder, plan, operator index), which grows by the index's two
// doublings past its first eight slots on the way to 32 operators. A
// chain of n operators (a Source, n−2 Maps sharing one MapFunc, a Collect)
// read two objects per operator while every edge was a slice of its own.
// Each added operator costs its own size and the index's amortised growth
// in bytes: 320 a Map while every operator carried every kind's fields.
func TestBuilderAllocatesPerOperator(t *testing.T) {
	fn := Identity()
	src := sampleSource()
	chain := func(n int) {
		b := NewBuilder("chain")
		op := b.Source("src", src)
		for i := 0; i < n-2; i++ {
			op = b.Map(op, fn)
		}
		b.Collect(op)
		b.MustBuild()
	}
	perPlan := func(n int) (float64, float64) {
		got := testing.AllocsPerRun(100, func() { chain(n) })
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			chain(n)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%2d operators: %.0f objects, %.0f past one per operator, %.0f bytes", n, got, got-float64(n), bytes)
		return got - float64(n), bytes
	}
	narrow, narrowBytes := perPlan(4)
	wide, wideBytes := perPlan(32)
	if d := wide - narrow; d < 0 || d > 2 {
		t.Errorf("a plan costs %.0f objects past its operators at 4 operators and %.0f at 32: something is per edge", narrow, wide)
	}
	// The index's doublings to 16 and 32 slots, spread over the 28 added
	// operators, and a byte for what the runtime allocates meanwhile.
	growth := float64((16 + 32) * unsafe.Sizeof((*Operator)(nil)))
	perOp, limit := (wideBytes-narrowBytes)/28, operatorBytes+growth/28+1
	if perOp > limit {
		t.Errorf("an added operator costs %.1f bytes, want at most %.1f: its size and the index's growth", perOp, limit)
	}
}

// TestBuilderCallsAllocateOnce: every kind's builder call is one object,
// the kinds that always hold the rare fields (Repeat, DoWhile, ThetaJoin,
// Sample) included: they get them in their operator's own allocation.
// A source given its row form beside its columns is one object too.
func TestBuilderCallsAllocateOnce(t *testing.T) {
	bb := NewBodyBuilder("body")
	bb.Collect(bb.LoopInput("li"))
	body := bb.MustBuild()
	cols := batch.FromRecords([]data.Record{data.NewRecord(data.Int(1))})
	rows := Collection(nil)
	calls := []struct {
		name string
		add  func(b *Builder, in *Operator)
	}{
		{"nothing", func(*Builder, *Operator) {}},
		{"Map", func(b *Builder, in *Operator) { b.Map(in, nil) }},
		{"Sort", func(b *Builder, in *Operator) { b.Sort(in, nil, true) }},
		{"Join", func(b *Builder, in *Operator) { b.Join(in, in, nil, nil) }},
		{"ThetaJoin", func(b *Builder, in *Operator) { b.ThetaJoin(in, in, nil) }},
		{"Sample", func(b *Builder, in *Operator) { b.Sample(in, 3) }},
		{"Repeat", func(b *Builder, in *Operator) { b.Repeat(in, 3, body) }},
		{"DoWhile", func(b *Builder, in *Operator) { b.DoWhile(in, nil, 3, body) }},
		{"SourceColumns", func(b *Builder, in *Operator) { b.SourceColumns("s", cols, rows) }},
	}
	var base float64
	for i, c := range calls {
		got := testing.AllocsPerRun(100, func() {
			b := NewBuilder("x")
			calls[i].add(b, b.Source("s", rows))
		})
		if i == 0 {
			base = got
			continue
		}
		if got-base != 1 {
			t.Errorf("%s makes %.0f objects, want 1", c.name, got-base)
		}
	}
}
