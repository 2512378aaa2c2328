package cost

import (
	"testing"
	"time"
)

func TestNLogN(t *testing.T) {
	m := NLogN(time.Millisecond, 10*time.Nanosecond)
	c := m(nil, []int64{1024}, 0)
	if c.Startup != time.Millisecond {
		t.Error("startup lost")
	}
	want := time.Duration(1024 * 10 * 10) // n·log2(n)·perRec
	if c.CPU != want {
		t.Errorf("CPU = %v, want %v", c.CPU, want)
	}
}

// TestNLogNBoundaries pins the model's small-n behavior: log₂ is only
// applied for n > 1 (log₂(1) = 0 would otherwise zero out real work,
// and log₂(0) is -Inf), empty input costs nothing, and corrupt negative
// cardinality sums clamp to zero rather than going negative.
func TestNLogNBoundaries(t *testing.T) {
	perRec := 10 * time.Nanosecond
	m := NLogN(0, perRec)
	cases := []struct {
		name    string
		inCards []int64
		want    time.Duration
	}{
		{"no inputs", nil, 0},
		{"n=0", []int64{0}, 0},
		{"n=1 charges linear, not n·log2(1)=0", []int64{1}, perRec},
		{"n=1 split across inputs", []int64{1, 0}, perRec},
		{"n=2", []int64{2}, 2 * perRec}, // 2·log2(2) = 2
		{"negative sum clamps to zero", []int64{-5}, 0},
		{"negative side cancels within the sum", []int64{-3, 4}, perRec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := m(nil, tc.inCards, 0)
			if c.CPU != tc.want {
				t.Errorf("CPU = %v, want %v", c.CPU, tc.want)
			}
			if c.CPU < 0 {
				t.Errorf("negative cost %v", c.CPU)
			}
		})
	}
}

func TestPairQuadratic(t *testing.T) {
	m := PairQuadratic(0, time.Nanosecond)
	if c := m(nil, []int64{100, 200}, 0); c.CPU != 20000*time.Nanosecond {
		t.Errorf("pairs CPU = %v", c.CPU)
	}
	// Single input: no pairs.
	if c := m(nil, []int64{100}, 0); c.CPU != 0 {
		t.Errorf("unary CPU = %v", c.CPU)
	}
}

// TestPairQuadraticEmptySide is the regression test for the
// zero-cardinality bug: an empty side used to contribute factor 1 to
// the product, so joining 0×200 records was priced like scanning 200 —
// enough to flip a platform choice on empty-input plans. An empty side
// must zero the pair count.
func TestPairQuadraticEmptySide(t *testing.T) {
	m := PairQuadratic(time.Millisecond, time.Nanosecond)
	cases := []struct {
		name    string
		inCards []int64
		want    time.Duration
	}{
		{"empty left", []int64{0, 200}, 0},
		{"empty right", []int64{200, 0}, 0},
		{"both empty", []int64{0, 0}, 0},
		{"negative (unknown) side clamps to empty", []int64{-1, 200}, 0},
		{"non-empty control", []int64{3, 4}, 12 * time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := m(nil, tc.inCards, 0)
			if c.CPU != tc.want {
				t.Errorf("CPU = %v, want %v", c.CPU, tc.want)
			}
			if c.Startup != time.Millisecond {
				t.Errorf("startup = %v", c.Startup)
			}
		})
	}
}

func TestScaled(t *testing.T) {
	base := ConstModel(Cost{CPU: 100, IO: 50, Net: 10, Startup: 7})
	c := Scaled(base, 0.5)(nil, nil, 0)
	if c.CPU != 50 || c.IO != 25 {
		t.Errorf("scaled = %+v", c)
	}
	// Net and Startup untouched.
	if c.Net != 10 || c.Startup != 7 {
		t.Errorf("scaled non-compute components = %+v", c)
	}
}

func TestWithStartup(t *testing.T) {
	base := ConstModel(Cost{CPU: 100, Startup: 1})
	c := WithStartup(base, time.Second)(nil, nil, 0)
	if c.Startup != time.Second || c.CPU != 100 {
		t.Errorf("with startup = %+v", c)
	}
}

func TestParallel(t *testing.T) {
	base := ConstModel(Cost{CPU: 800, IO: 80, Net: 8})
	c := Parallel(base, 8)(nil, nil, 0)
	if c.CPU != 100 || c.IO != 10 {
		t.Errorf("parallel = %+v", c)
	}
	if c.Net != 8 {
		t.Error("network wrongly parallelised")
	}
	// Degenerate degree clamps to 1.
	if c := Parallel(base, 0)(nil, nil, 0); c.CPU != 800 {
		t.Errorf("degree 0 = %+v", c)
	}
}
