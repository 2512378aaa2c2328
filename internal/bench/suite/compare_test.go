package suite

import (
	"bytes"
	"strings"
	"testing"
)

// benchFile builds a one-area File from (name, wallNS, simNS) triples.
func benchFile(area string, scenarios ...Result) *File {
	return &File{Schema: SchemaVersion, Area: area, Tier: TierShort, Scenarios: scenarios}
}

func res(name string, wallNS int64) Result {
	return Result{Name: name, Reps: 3, Warmup: 1, WallNS: wallNS, SimNS: wallNS * 2, RepWallNS: []int64{wallNS}}
}

func TestCompareTable(t *testing.T) {
	base := int64(100_000_000) // 100ms: far above the noise floor
	cases := []struct {
		name       string
		old, new   Result
		opts       CompareOptions
		wantStatus string
		wantGate   bool // should count as a regression
	}{
		{
			name: "unchanged is ok",
			old:  res("s", base), new: res("s", base),
			wantStatus: StatusOK,
		},
		{
			name: "just under the threshold is ok",
			old:  res("s", base), new: res("s", base+base/10), // exactly +10%
			wantStatus: StatusOK,
		},
		{
			name: "just past the threshold regresses",
			old:  res("s", base), new: res("s", base+base/10+base/100), // +11%
			wantStatus: StatusRegressed, wantGate: true,
		},
		{
			name: "improvement past the threshold is improved",
			old:  res("s", base), new: res("s", base/2),
			wantStatus: StatusImproved,
		},
		{
			name: "small improvement is ok",
			old:  res("s", base), new: res("s", base-base/20), // -5%
			wantStatus: StatusOK,
		},
		{
			name: "custom threshold tightens the gate",
			old:  res("s", base), new: res("s", base+base/20), // +5%
			opts:       CompareOptions{ThresholdPct: 2},
			wantStatus: StatusRegressed, wantGate: true,
		},
		{
			name: "zero baseline never gates",
			old:  res("s", 0), new: res("s", base),
			wantStatus: StatusZeroBaseline,
		},
		{
			name: "near-zero baseline never gates",
			old:  res("s", DefaultFloorNS-1), new: res("s", base),
			wantStatus: StatusZeroBaseline,
		},
		{
			name: "sim metric gates on sim",
			old:  res("s", base), new: res("s", base), // walls equal…
			opts:       CompareOptions{Metric: "sim"},
			wantStatus: StatusOK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compare(benchFile(AreaCore, tc.old), benchFile(AreaCore, tc.new), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Deltas) != 1 {
				t.Fatalf("got %d deltas, want 1", len(c.Deltas))
			}
			d := c.Deltas[0]
			if d.Status != tc.wantStatus {
				t.Errorf("status = %q, want %q (delta %+v)", d.Status, tc.wantStatus, d)
			}
			gated := c.Regressions() > 0
			if gated != tc.wantGate {
				t.Errorf("Regressions() > 0 = %v, want %v", gated, tc.wantGate)
			}
		})
	}
}

// resFull builds a Result with allocation and throughput baselines
// above their floors, so the sub-delta gates engage.
func resFull(name string, wallNS, allocs int64, rps float64) Result {
	r := res(name, wallNS)
	r.AllocsPerOp = allocs
	r.RecordsPerSec = rps
	return r
}

func TestCompareGatesAllocs(t *testing.T) {
	base := int64(100_000_000)
	cases := []struct {
		name       string
		oldAllocs  int64
		newAllocs  int64
		opts       CompareOptions
		wantStatus string
		wantGate   bool
	}{
		{name: "flat allocs ok", oldAllocs: 50_000, newAllocs: 50_000, wantStatus: StatusOK},
		{name: "allocs growth past threshold regresses", oldAllocs: 50_000, newAllocs: 60_000, wantStatus: StatusRegressed, wantGate: true},
		{name: "allocs drop past threshold improves", oldAllocs: 50_000, newAllocs: 40_000, wantStatus: StatusImproved},
		{name: "tiny alloc baseline never gates", oldAllocs: DefaultAllocsFloor - 1, newAllocs: 1_000_000, wantStatus: StatusZeroBaseline},
		{
			name:      "negative threshold disables alloc gating",
			oldAllocs: 50_000, newAllocs: 500_000,
			opts:       CompareOptions{AllocsThresholdPct: -1},
			wantStatus: "",
		},
		{
			name:      "custom alloc threshold tightens the gate",
			oldAllocs: 50_000, newAllocs: 52_000, // +4%
			opts:       CompareOptions{AllocsThresholdPct: 2},
			wantStatus: StatusRegressed, wantGate: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := resFull("s", base, tc.oldAllocs, 0)
			new := resFull("s", base, tc.newAllocs, 0)
			c, err := Compare(benchFile(AreaCore, old), benchFile(AreaCore, new), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			d := c.Deltas[0]
			if d.AllocsStatus != tc.wantStatus {
				t.Errorf("allocs status = %q, want %q (delta %+v)", d.AllocsStatus, tc.wantStatus, d)
			}
			if gated := c.Regressions() > 0; gated != tc.wantGate {
				t.Errorf("Regressions() > 0 = %v, want %v", gated, tc.wantGate)
			}
			if d.Status != StatusOK {
				t.Errorf("wall status = %q, want ok (sub-gate must not disturb the time gate)", d.Status)
			}
		})
	}
}

func TestCompareGatesRecordsPerSec(t *testing.T) {
	base := int64(100_000_000)
	cases := []struct {
		name       string
		oldRPS     float64
		newRPS     float64
		opts       CompareOptions
		wantStatus string
		wantGate   bool
	}{
		{name: "flat throughput ok", oldRPS: 1000, newRPS: 1000, wantStatus: StatusOK},
		{name: "throughput drop past threshold regresses", oldRPS: 1000, newRPS: 800, wantStatus: StatusRegressed, wantGate: true},
		{name: "throughput gain past threshold improves", oldRPS: 1000, newRPS: 1200, wantStatus: StatusImproved},
		{name: "zero throughput baseline never gates", oldRPS: 0, newRPS: 1000, wantStatus: StatusZeroBaseline},
		{
			name:   "negative threshold disables rps gating",
			oldRPS: 1000, newRPS: 10,
			opts:       CompareOptions{RPSThresholdPct: -1},
			wantStatus: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := resFull("s", base, 0, tc.oldRPS)
			new := resFull("s", base, 0, tc.newRPS)
			c, err := Compare(benchFile(AreaCore, old), benchFile(AreaCore, new), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			d := c.Deltas[0]
			if d.RPSStatus != tc.wantStatus {
				t.Errorf("rps status = %q, want %q (delta %+v)", d.RPSStatus, tc.wantStatus, d)
			}
			if gated := c.Regressions() > 0; gated != tc.wantGate {
				t.Errorf("Regressions() > 0 = %v, want %v", gated, tc.wantGate)
			}
		})
	}
}

// TestCompareSubDeltaTable checks the rendered table carries the
// sub-delta columns and flags which metric tripped the gate.
func TestCompareSubDeltaTable(t *testing.T) {
	base := int64(100_000_000)
	old := resFull("s", base, 50_000, 1000)
	new := resFull("s", base, 70_000, 500)
	c, err := Compare(benchFile(AreaCore, old), benchFile(AreaCore, new), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"+40.0%", "-50.0%", "ok+allocs+rec/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if c.Regressions() != 1 {
		t.Errorf("one scenario tripping two sub-gates must count once, got %d", c.Regressions())
	}
}

func TestCompareSimMetricRegression(t *testing.T) {
	// Wall improves, sim regresses: the chosen metric decides.
	old := Result{Name: "s", WallNS: 100_000_000, SimNS: 100_000_000}
	new := Result{Name: "s", WallNS: 50_000_000, SimNS: 200_000_000}
	c, err := Compare(benchFile(AreaCore, old), benchFile(AreaCore, new), CompareOptions{Metric: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Deltas[0].Status; got != StatusRegressed {
		t.Errorf("sim-metric status = %q, want regressed", got)
	}
	c, err = Compare(benchFile(AreaCore, old), benchFile(AreaCore, new), CompareOptions{Metric: "wall"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Deltas[0].Status; got != StatusImproved {
		t.Errorf("wall-metric status = %q, want improved", got)
	}
}

func TestCompareMissingScenarios(t *testing.T) {
	old := benchFile(AreaCore, res("kept", 100_000_000), res("dropped", 100_000_000))
	new := benchFile(AreaCore, res("kept", 100_000_000), res("added", 100_000_000))
	c, err := Compare(old, new, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Delta{}
	for _, d := range c.Deltas {
		byName[d.Name] = d
	}
	if byName["kept"].Status != StatusOK {
		t.Errorf("kept = %q, want ok", byName["kept"].Status)
	}
	if byName["added"].Status != StatusMissingOld {
		t.Errorf("added = %q, want missing-old", byName["added"].Status)
	}
	if byName["dropped"].Status != StatusMissingNew {
		t.Errorf("dropped = %q, want missing-new", byName["dropped"].Status)
	}
	if c.Regressions() != 0 {
		t.Errorf("missing scenarios counted as regressions: %d", c.Regressions())
	}
}

func TestCompareRejectsMismatches(t *testing.T) {
	if _, err := Compare(benchFile(AreaCore), benchFile(AreaSharding), CompareOptions{}); err == nil {
		t.Error("area mismatch accepted")
	}
	oldV := benchFile(AreaCore)
	oldV.Schema = SchemaVersion + 1
	if _, err := Compare(oldV, benchFile(AreaCore), CompareOptions{}); err == nil {
		t.Error("schema version mismatch accepted")
	}
	if _, err := Compare(benchFile(AreaCore), benchFile(AreaCore), CompareOptions{Metric: "bogus"}); err == nil {
		t.Error("bogus metric accepted")
	}
	if _, err := Compare(benchFile(AreaCore), benchFile(AreaCore), CompareOptions{ThresholdPct: -5}); err == nil {
		t.Error("negative threshold accepted")
	}
	oldT := benchFile(AreaCore)
	oldT.Tier = TierFull
	newT := benchFile(AreaCore)
	newT.Tier = TierShort
	if _, err := Compare(oldT, newT, CompareOptions{}); err == nil {
		t.Error("tier mismatch accepted")
	}
	oldQ := benchFile(AreaCore)
	newQ := benchFile(AreaCore)
	newQ.Quick = true
	if _, err := Compare(oldQ, newQ, CompareOptions{}); err == nil {
		t.Error("quick mismatch accepted")
	}
}

func TestCompareSets(t *testing.T) {
	old := []*File{benchFile(AreaCore, res("s", 100_000_000)), benchFile(AreaParallel, res("p", 100_000_000))}
	new := []*File{benchFile(AreaCore, res("s", 150_000_000)), benchFile(AreaParallel, res("p", 100_000_000))}
	cs, err := CompareSets(old, new, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("got %d comparisons, want 2", len(cs))
	}
	if Regressions(cs) != 1 {
		t.Errorf("Regressions = %d, want 1 (core regressed 50%%)", Regressions(cs))
	}

	// A vanished area must error, in both directions.
	if _, err := CompareSets(old, new[:1], CompareOptions{}); err == nil {
		t.Error("area missing from new set accepted")
	}
	if _, err := CompareSets(old[:1], new, CompareOptions{}); err == nil {
		t.Error("area missing from old set accepted")
	}
}

func TestCompareNoisyPropagates(t *testing.T) {
	old := res("s", 100_000_000)
	old.Noisy = true
	c, err := Compare(benchFile(AreaCore, old), benchFile(AreaCore, res("s", 100_000_000)), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Deltas[0].Noisy {
		t.Error("noisy flag on the old side did not propagate to the delta")
	}
	var buf bytes.Buffer
	c.WriteTable(&buf)
	if !strings.Contains(buf.String(), "(noisy)") {
		t.Errorf("table does not mark noisy deltas:\n%s", buf.String())
	}
}
