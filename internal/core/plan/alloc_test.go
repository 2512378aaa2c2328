// Not built under the race detector: its instrumentation allocates on the
// program's behalf.

//go:build !race

package plan

import "testing"

// TestBuilderAllocatesPerOperator: building a plan costs one object per
// operator — the operator, its inputs inline — and a constant per plan
// (builder, plan, operator index), which grows by the index's two
// doublings past its first eight slots on the way to 32 operators. A
// chain of n operators (a Source, n−2 Maps sharing one MapFunc, a Collect)
// read two objects per operator while every edge was a slice of its own.
func TestBuilderAllocatesPerOperator(t *testing.T) {
	fn := Identity()
	src := sampleSource()
	perPlan := func(n int) float64 {
		got := testing.AllocsPerRun(100, func() {
			b := NewBuilder("chain")
			op := b.Source("src", src)
			for i := 0; i < n-2; i++ {
				op = b.Map(op, fn)
			}
			b.Collect(op)
			b.MustBuild()
		})
		t.Logf("%2d operators: %.0f objects, %.0f past one per operator", n, got, got-float64(n))
		return got - float64(n)
	}
	narrow, wide := perPlan(4), perPlan(32)
	if d := wide - narrow; d < 0 || d > 2 {
		t.Errorf("a plan costs %.0f objects past its operators at 4 operators and %.0f at 32: something is per edge", narrow, wide)
	}
}
