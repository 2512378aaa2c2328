package batch

import (
	"errors"
	"testing"
)

func TestBitsetScanRange(t *testing.T) {
	b := NewBitset(200)
	for _, i := range []int{0, 63, 64, 65, 130, 199} {
		b.Set(i)
	}
	if !b.Get(64) || b.Get(1) {
		t.Error("get wrong")
	}
	if b.Count() != 6 {
		t.Errorf("count = %d", b.Count())
	}
	var got []int
	collect := func(i int) error { got = append(got, i); return nil }
	if err := b.ScanRange(1, 199, collect); err != nil {
		t.Fatal(err)
	}
	want := []int{63, 64, 65, 130}
	if len(got) != len(want) {
		t.Fatalf("scan got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan got %v want %v", got, want)
		}
	}
	// Degenerate and clamped ranges.
	got = nil
	if err := b.ScanRange(-5, 1, collect); err != nil || len(got) != 1 || got[0] != 0 {
		t.Errorf("clamped scan got %v", got)
	}
	got = nil
	if err := b.ScanRange(10, 10, collect); err != nil || len(got) != 0 {
		t.Error("empty range scanned bits")
	}
	got = nil
	if err := b.ScanRange(190, 1000, collect); err != nil || len(got) != 1 || got[0] != 199 {
		t.Errorf("tail scan got %v", got)
	}
}

func TestBitsetScanAbort(t *testing.T) {
	b := NewBitset(10)
	b.Set(2)
	b.Set(5)
	boom := errors.New("stop")
	calls := 0
	err := b.ScanRange(0, 10, func(int) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("scan abort: err=%v calls=%d", err, calls)
	}
}
