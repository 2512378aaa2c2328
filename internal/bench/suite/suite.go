// Package suite is the PR-14-era benchmark-suite harness: a fixed
// scenario matrix (single-platform cores, the §1 multi-platform
// pipeline, the E8 fan-out diamond, the E11 sharded wide chain) executed
// with warmup plus N repetitions, persisted as one machine-readable
// BENCH_<area>.json per area.
//
// No command drives it any more: `rheem-bench -suite`, the checked-in
// baselines and the CI job that compared against them are gone, and this
// package goes next (ROADMAP 1a). It is still here only because its 13
// tier-1 test ids, with the 5 of metrics.Snapshot.Quantile which it alone
// calls, are more than one PR may remove.
//
// The design follows elastic-package's system benchmarking loop
// (scenario → run → collect metrics → summary report; SNIPPETS.md).
//
// Noise handling: the headline wall/sim numbers are the minimum over
// repetitions (the least-disturbed run — the same best-of policy E10
// and E11 use), every repetition is retained in rep_wall_ns for
// post-hoc inspection, and a scenario whose rep-to-rep spread exceeds
// the noise tolerance is flagged Noisy so a reader knows the number is
// soft.
package suite

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// SchemaVersion is the BENCH_*.json format version. Decode rejects
// files with a different version so `-compare` never silently diffs
// incompatible measurements.
const SchemaVersion = 1

// Tiers.
const (
	TierShort = "short" // CI-sized: seconds per scenario
	TierFull  = "full"  // the real sweep sizes
)

// Env is the measurement environment persisted with every result set,
// so a compare across machines or toolchains is visibly apples-to-
// oranges.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
}

// CaptureEnv snapshots the current process environment. The commit is
// caller-supplied (the cmd layer asks git; tests pass "").
func CaptureEnv(commit string) Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
	}
}

// Result is one scenario's persisted measurement.
type Result struct {
	Name   string `json:"name"`
	Reps   int    `json:"reps"`
	Warmup int    `json:"warmup"`

	// WallNS and SimNS are the minimum over repetitions (noise-aware:
	// the least-disturbed rep). RepWallNS retains every repetition.
	WallNS    int64   `json:"wall_ns"`
	SimNS     int64   `json:"sim_ns"`
	RepWallNS []int64 `json:"rep_wall_ns"`

	// Records is the per-repetition record traffic (records produced to
	// output channels — invariant across reps for a deterministic
	// scenario); RecordsPerSec derives from the min-wall rep.
	Records       int64   `json:"records"`
	RecordsPerSec float64 `json:"records_per_sec"`

	// AllocsPerOp is the heap-allocation count per repetition, averaged
	// over the measured reps (warmup excluded).
	AllocsPerOp int64 `json:"allocs_per_op"`

	// P99LatencyNS is the 99th-percentile task-atom latency across the
	// measured reps, extracted from the telemetry hub's
	// rheem_atom_latency_seconds histogram; 0 if no atoms were observed.
	P99LatencyNS int64 `json:"p99_latency_ns"`

	// SpreadPct is (max-min)/min over RepWallNS, in percent; Noisy
	// marks scenarios whose spread exceeded the noise budget the run
	// applied to this scenario — NoiseBudgetPct, which is the
	// scenario's own budget when it declares one and the run-wide
	// tolerance otherwise. (Absent in pre-budget result files; decodes
	// as 0.)
	SpreadPct      float64 `json:"spread_pct"`
	Noisy          bool    `json:"noisy"`
	NoiseBudgetPct float64 `json:"noise_budget_pct,omitempty"`
}

// File is one BENCH_<area>.json result set.
type File struct {
	Schema int    `json:"schema"`
	Area   string `json:"area"`
	Tier   string `json:"tier"`
	// Quick marks a test-shrunk run; quick and non-quick runs execute
	// different workload sizes, and must not be compared.
	Quick     bool     `json:"quick,omitempty"`
	Env       Env      `json:"env"`
	Scenarios []Result `json:"scenarios"`
}

// Filename is the canonical on-disk name for an area's result set.
func Filename(area string) string { return "BENCH_" + area + ".json" }

// Encode renders the file in its canonical form: two-space-indented
// JSON with a trailing newline. Encoding is deterministic for a given
// value, so encode→decode→encode is a fixpoint (pinned by tests).
func (f *File) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses a result set and validates its schema version,
// rejecting mismatches with an error that names both versions.
func Decode(b []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("suite: invalid BENCH json: %w", err)
	}
	if f.Schema != SchemaVersion {
		return nil, fmt.Errorf("suite: schema version mismatch: file has %d, this binary speaks %d", f.Schema, SchemaVersion)
	}
	if f.Area == "" {
		return nil, fmt.Errorf("suite: BENCH file has no area")
	}
	return &f, nil
}

// Load reads and decodes one BENCH_*.json file.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// LoadSet loads a result set from path: a single BENCH_*.json file, or
// a directory holding one or more of them.
func LoadSet(path string) ([]*File, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		f, err := Load(path)
		if err != nil {
			return nil, err
		}
		return []*File{f}, nil
	}
	matches, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("suite: no BENCH_*.json files under %s", path)
	}
	out := make([]*File, 0, len(matches))
	for _, m := range matches {
		f, err := Load(m)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// WriteFiles encodes each result set into dir as BENCH_<area>.json.
func WriteFiles(dir string, files []*File) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		b, err := f.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, Filename(f.Area)), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Canonical returns a deep copy with every measured value zeroed —
// what remains is the run's *shape*: schema, area, tier, environment,
// scenario names, and rep/warmup counts. Two runs of the same suite on
// the same host must produce byte-identical canonical encodings (the
// determinism contract `-suite` is tested against).
func (f *File) Canonical() *File {
	out := *f
	out.Scenarios = make([]Result, len(f.Scenarios))
	for i, r := range f.Scenarios {
		r.WallNS, r.SimNS = 0, 0
		r.RepWallNS = make([]int64, len(r.RepWallNS)) // length is shape; values are measurement
		r.Records, r.RecordsPerSec = 0, 0
		r.AllocsPerOp, r.P99LatencyNS = 0, 0
		r.SpreadPct, r.Noisy = 0, false
		out.Scenarios[i] = r
	}
	return &out
}

// Options steers a suite run.
type Options struct {
	// Tier selects workload sizes: TierShort (default) or TierFull.
	Tier string
	// Quick shrinks the short tier further for tests (smaller inputs,
	// fewer reps) without changing the scenario set or schema.
	Quick bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Commit is recorded in the environment metadata (may be empty).
	Commit string
	// NoisePct flags scenarios whose rep-to-rep wall spread exceeds
	// this percentage; 0 means DefaultNoisePct. A scenario declaring
	// its own Scenario.NoisePct budget overrides this run-wide value.
	NoisePct float64
	// Areas, when non-empty, restricts the run to these areas. A name
	// matching no scenario is an error — a typo must not silently
	// produce an empty result set.
	Areas []string
}

// DefaultNoisePct is the rep-to-rep spread above which a scenario is
// flagged Noisy.
const DefaultNoisePct = 25.0

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Run executes the full scenario matrix at the requested tier and
// groups the results into one File per area, in matrix order.
func Run(opts Options) ([]*File, error) {
	if opts.Tier == "" {
		opts.Tier = TierShort
	}
	if opts.Tier != TierShort && opts.Tier != TierFull {
		return nil, fmt.Errorf("suite: unknown tier %q (want %q or %q)", opts.Tier, TierShort, TierFull)
	}
	if opts.NoisePct == 0 {
		opts.NoisePct = DefaultNoisePct
	}
	env := CaptureEnv(opts.Commit)
	scale := Scale{Tier: opts.Tier, Quick: opts.Quick}

	known := map[string]bool{}
	for _, sc := range Scenarios() {
		known[sc.Area] = true
	}
	want := map[string]bool{}
	for _, a := range opts.Areas {
		if !known[a] {
			return nil, fmt.Errorf("suite: unknown area %q", a)
		}
		want[a] = true
	}

	var areas []string
	byArea := map[string]*File{}
	for _, sc := range Scenarios() {
		if len(want) > 0 && !want[sc.Area] {
			continue
		}
		opts.logf("suite: %s/%s (%s tier)", sc.Area, sc.Name, opts.Tier)
		res, err := runScenario(sc, scale, opts)
		if err != nil {
			return nil, fmt.Errorf("suite: %s: %w", sc.Name, err)
		}
		f := byArea[sc.Area]
		if f == nil {
			f = &File{Schema: SchemaVersion, Area: sc.Area, Tier: opts.Tier, Quick: opts.Quick, Env: env}
			byArea[sc.Area] = f
			areas = append(areas, sc.Area)
		}
		f.Scenarios = append(f.Scenarios, res)
	}
	out := make([]*File, 0, len(areas))
	for _, a := range areas {
		out = append(out, byArea[a])
	}
	return out, nil
}

// runScenario measures one scenario: warmup repetitions on a throwaway
// telemetry hub, then the measured reps on a fresh hub so the p99
// histogram covers exactly the measured work.
func runScenario(sc Scenario, scale Scale, opts Options) (Result, error) {
	reps, warmup := scale.Reps()
	for i := 0; i < warmup; i++ {
		if _, err := sc.Run(scale, newWarmupHub()); err != nil {
			return Result{}, fmt.Errorf("warmup %d: %w", i, err)
		}
	}

	hub := newMeasureHub()
	res := Result{Name: sc.Name, Reps: reps, Warmup: warmup}
	var mallocs0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mallocs0)
	minWall, minSim := time.Duration(0), time.Duration(0)
	for i := 0; i < reps; i++ {
		m, err := sc.Run(scale, hub)
		if err != nil {
			return Result{}, fmt.Errorf("rep %d: %w", i, err)
		}
		res.RepWallNS = append(res.RepWallNS, m.Wall.Nanoseconds())
		if minWall == 0 || m.Wall < minWall {
			minWall = m.Wall
		}
		if minSim == 0 || m.Sim < minSim {
			minSim = m.Sim
		}
		res.Records = m.Records
	}
	var mallocs1 runtime.MemStats
	runtime.ReadMemStats(&mallocs1)

	res.WallNS = minWall.Nanoseconds()
	res.SimNS = minSim.Nanoseconds()
	if minWall > 0 {
		res.RecordsPerSec = float64(res.Records) / minWall.Seconds()
	}
	res.AllocsPerOp = int64(mallocs1.Mallocs-mallocs0.Mallocs) / int64(reps)
	if p99, ok := hub.Registry().Snapshot().Quantile("rheem_atom_latency_seconds", 0.99, nil); ok {
		res.P99LatencyNS = int64(p99 * 1e9)
	}
	res.SpreadPct = spreadPct(res.RepWallNS)
	res.NoiseBudgetPct = opts.NoisePct
	if sc.NoisePct > 0 {
		res.NoiseBudgetPct = sc.NoisePct
	}
	res.Noisy = res.SpreadPct > res.NoiseBudgetPct
	return res, nil
}

// spreadPct is (max-min)/min over the rep walls, in percent.
func spreadPct(reps []int64) float64 {
	if len(reps) < 2 {
		return 0
	}
	min, max := reps[0], reps[0]
	for _, r := range reps[1:] {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if min <= 0 {
		return 0
	}
	return 100 * float64(max-min) / float64(min)
}
