package suite

import (
	"bytes"
	"testing"
	"time"

	"rheem/internal/core/metrics"
)

// TestSuiteDeterminism is the shape contract behind checked-in
// baselines: two consecutive quick short-tier runs must execute the
// identical scenario matrix and produce schema-identical JSON — only
// the measured values may differ. Canonical() zeroes exactly those, so
// the canonical encodings must match byte for byte.
func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	opts := Options{Tier: TierShort, Quick: true}
	run1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(run1) != len(run2) {
		t.Fatalf("area counts differ: %d vs %d", len(run1), len(run2))
	}
	for i := range run1 {
		f1, f2 := run1[i], run2[i]
		if f1.Area != f2.Area {
			t.Fatalf("area order differs: %q vs %q", f1.Area, f2.Area)
		}
		names := func(f *File) []string {
			out := make([]string, len(f.Scenarios))
			for j, s := range f.Scenarios {
				out[j] = s.Name
			}
			return out
		}
		n1, n2 := names(f1), names(f2)
		if len(n1) != len(n2) {
			t.Fatalf("%s: scenario counts differ: %v vs %v", f1.Area, n1, n2)
		}
		for j := range n1 {
			if n1[j] != n2[j] {
				t.Errorf("%s: scenario set differs at %d: %q vs %q", f1.Area, j, n1[j], n2[j])
			}
		}
		b1, err := f1.Canonical().Encode()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := f2.Canonical().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: canonical encodings differ:\n%s\nvs\n%s", f1.Area, b1, b2)
		}

		// Record traffic is part of the deterministic workload, not
		// timing: identical across runs.
		for j := range f1.Scenarios {
			if f1.Scenarios[j].Records != f2.Scenarios[j].Records {
				t.Errorf("%s/%s: record counts differ across runs: %d vs %d",
					f1.Area, f1.Scenarios[j].Name, f1.Scenarios[j].Records, f2.Scenarios[j].Records)
			}
		}
	}

	// Every scenario must carry a full measurement: reps recorded,
	// positive wall clock, records observed, and the noisy flag
	// consistent with the recorded spread.
	for _, f := range run1 {
		for _, s := range f.Scenarios {
			if len(s.RepWallNS) != s.Reps {
				t.Errorf("%s/%s: %d rep walls for %d reps", f.Area, s.Name, len(s.RepWallNS), s.Reps)
			}
			if s.WallNS <= 0 || s.Records <= 0 || s.RecordsPerSec <= 0 {
				t.Errorf("%s/%s: incomplete measurement: %+v", f.Area, s.Name, s)
			}
			if s.P99LatencyNS <= 0 {
				t.Errorf("%s/%s: no p99 extracted from the telemetry hub", f.Area, s.Name)
			}
			// The flag is judged against the budget actually applied —
			// scenarios with an elevated Scenario.NoisePct (colchain*,
			// serve-*) are noisy only past their own budget.
			budget := s.NoiseBudgetPct
			if budget == 0 {
				budget = DefaultNoisePct
			}
			if s.Noisy != (s.SpreadPct > budget) {
				t.Errorf("%s/%s: noisy=%v inconsistent with spread %.1f%% (budget %v%%)",
					f.Area, s.Name, s.Noisy, s.SpreadPct, budget)
			}
		}
	}
}

func TestRunRejectsUnknownTier(t *testing.T) {
	if _, err := Run(Options{Tier: "medium"}); err == nil {
		t.Error("unknown tier accepted")
	}
}

func TestSpreadPct(t *testing.T) {
	cases := []struct {
		reps []int64
		want float64
	}{
		{nil, 0},
		{[]int64{100}, 0},
		{[]int64{100, 100}, 0},
		{[]int64{100, 150}, 50},
		{[]int64{200, 100, 150}, 100},
		{[]int64{0, 100}, 0}, // degenerate min: no meaningful spread
	}
	for _, tc := range cases {
		if got := spreadPct(tc.reps); got != tc.want {
			t.Errorf("spreadPct(%v) = %v, want %v", tc.reps, got, tc.want)
		}
	}
}

// TestScenarioMatrixShape pins the matrix the BENCH files are built
// from: every scenario named, areas grouped contiguously, names unique.
func TestScenarioMatrixShape(t *testing.T) {
	seen := map[string]bool{}
	areas := map[string]bool{}
	var lastArea string
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Area == "" || sc.Run == nil {
			t.Errorf("incomplete scenario: %+v", sc)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Area != lastArea && areas[sc.Area] {
			t.Errorf("area %q is not contiguous in the matrix", sc.Area)
		}
		areas[sc.Area] = true
		lastArea = sc.Area
	}
	for _, want := range []string{AreaCore, AreaParallel, AreaSharding, AreaService} {
		if !areas[want] {
			t.Errorf("matrix covers no %q scenarios", want)
		}
	}
}

// TestRunAreasFilter pins the -areas contract: only the requested
// areas run, and a typo errors instead of yielding an empty set.
func TestRunAreasFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sharding area")
	}
	files, err := Run(Options{Tier: TierShort, Quick: true, Areas: []string{AreaSharding}})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Area != AreaSharding {
		t.Fatalf("areas filter produced %+v", files)
	}
	if len(files[0].Scenarios) == 0 {
		t.Fatal("filtered area ran no scenarios")
	}
	if _, err := Run(Options{Tier: TierShort, Quick: true, Areas: []string{"shardnig"}}); err == nil {
		t.Error("unknown area accepted")
	}
}

// TestPerScenarioNoiseBudget pins the budget override: a scenario
// declaring its own NoisePct is judged against it instead of the
// run-wide tolerance, and the applied budget is persisted with the
// result either way.
func TestPerScenarioNoiseBudget(t *testing.T) {
	// Walls are reported by the scenario itself, so the spread is
	// scripted: warmup, then 100ms and 140ms — a 40% spread.
	mkRun := func() func(Scale, *metrics.Hub) (Measure, error) {
		walls := []time.Duration{time.Millisecond, 100 * time.Millisecond, 140 * time.Millisecond}
		i := 0
		return func(Scale, *metrics.Hub) (Measure, error) {
			w := walls[i%len(walls)]
			i++
			return Measure{Wall: w, Sim: w, Records: 1}, nil
		}
	}
	opts := Options{NoisePct: DefaultNoisePct}
	scale := Scale{Tier: TierShort, Quick: true} // 2 reps, 1 warmup

	flat, err := runScenario(Scenario{Name: "flat", Area: "x", Run: mkRun()}, scale, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Noisy || flat.NoiseBudgetPct != DefaultNoisePct {
		t.Errorf("flat budget: noisy=%v budget=%v, want noisy under the default %v",
			flat.Noisy, flat.NoiseBudgetPct, DefaultNoisePct)
	}

	own, err := runScenario(Scenario{Name: "own", Area: "x", NoisePct: 50, Run: mkRun()}, scale, opts)
	if err != nil {
		t.Fatal(err)
	}
	if own.Noisy || own.NoiseBudgetPct != 50 {
		t.Errorf("scenario budget: noisy=%v budget=%v, want quiet under 50", own.Noisy, own.NoiseBudgetPct)
	}
	if flat.SpreadPct != own.SpreadPct {
		t.Errorf("spread differs between runs: %v vs %v", flat.SpreadPct, own.SpreadPct)
	}
}

// TestMatrixNoiseBudgets pins which cells carry elevated budgets: the
// sub-millisecond columnar chains and the queue-timing-bound service
// cells, and nothing else.
func TestMatrixNoiseBudgets(t *testing.T) {
	want := map[string]float64{
		"serve-tenants1": 40, "serve-tenants4": 40,
		"colchain": 60, "colchain-udf": 60,
	}
	for _, sc := range Scenarios() {
		if got := want[sc.Name]; sc.NoisePct != got {
			t.Errorf("%s: noise budget %v, want %v", sc.Name, sc.NoisePct, got)
		}
	}
}

// TestColumnarAllocsCountTheChainNotTheDataset pins what allocs_per_op
// means in the columnar area: the dataset is built outside the measured
// window, so the hinted chain — whose kernels allocate per column, not
// per record — reads far under one allocation per input record. (With
// the generator inside the window it read one per record plus change,
// whatever the engine did.)
func TestColumnarAllocsCountTheChainNotTheDataset(t *testing.T) {
	files, err := Run(Options{Quick: true, Areas: []string{AreaColumnar}})
	if err != nil {
		t.Fatal(err)
	}
	const quickRows = 5_000
	for _, s := range files[0].Scenarios {
		if s.Name == "colchain" && s.AllocsPerOp > quickRows/5 {
			t.Errorf("colchain: %d allocs/op over %d records: the dataset generator or a per-record allocation is inside the measured window", s.AllocsPerOp, quickRows)
		}
	}
}
