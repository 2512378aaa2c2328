//go:build go1.24

package data

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"
)

// TestEmptySubstringPinsNothing: an empty string holds its kind's tag,
// not the pointer it was sliced from, so one empty cell cut from a large
// buffer does not keep the buffer alive — while a non-empty substring
// does, which shows the check can see a pinned buffer at all. Weak
// pointers are Go 1.24's, hence the file's build line; the module itself
// asks for Go 1.22.
func TestEmptySubstringPinsNothing(t *testing.T) {
	cut := func(i, j int) (Value, weak.Pointer[byte]) {
		buf := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB on the heap
		return Str(buf[i:j]), weak.Make(unsafe.StringData(buf))
	}
	empty, emptyParent := cut(7, 7)
	short, shortParent := cut(5, 9)
	runtime.GC()
	if emptyParent.Value() != nil {
		t.Error("an empty substring keeps its 1 MiB parent alive")
	}
	if shortParent.Value() == nil {
		t.Error("a live substring's parent was collected: the check cannot see a pinned buffer")
	}
	if empty.Kind() != KindString || empty.Str() != "" || short.Str() != "5678" {
		t.Errorf("substrings read back as %s %q and %q", empty.Kind(), empty, short)
	}
	runtime.KeepAlive(empty)
	runtime.KeepAlive(short)
}
