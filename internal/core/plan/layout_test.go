package plan

import (
	"testing"
	"unsafe"
)

// TestOperatorLayout: an operator keeps its inputs inline, at most two,
// beside its kind, and stays in the 320-byte size class it had while its
// inputs were a slice of their own.
func TestOperatorLayout(t *testing.T) {
	if got := unsafe.Sizeof(Operator{}); got > 320 {
		t.Errorf("plan.Operator is %d bytes, want at most 320", got)
	}
	for k := KindSource; k <= KindSink; k++ {
		if a := k.Arity(); a > len(Operator{}.in) {
			t.Errorf("%s takes %d inputs, an operator holds %d", k, a, len(Operator{}.in))
		}
	}
}
