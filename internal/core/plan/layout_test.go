package plan

import (
	"testing"
	"unsafe"
)

// TestOperatorLayout: an operator keeps its inputs inline, at most two,
// beside its kind, and one slot each for its kind's UDF and column form,
// with what only loops, theta-joins, samples and rare hints use behind one
// pointer: 112 bytes, where carrying every kind's fields made it 320.
const operatorBytes = 112

func TestOperatorLayout(t *testing.T) {
	if got := unsafe.Sizeof(Operator{}); got > operatorBytes {
		t.Errorf("plan.Operator is %d bytes, want at most %d", got, operatorBytes)
	}
	for k := KindSource; k <= KindSink; k++ {
		if a := k.Arity(); a > len(Operator{}.in) {
			t.Errorf("%s takes %d inputs, an operator holds %d", k, a, len(Operator{}.in))
		}
	}
}
