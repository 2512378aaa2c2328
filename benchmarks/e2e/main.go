// Command e2e is the repository's benchmark: four closed-loop workloads
// over the public surfaces a RHEEM user touches, six whole-run metrics
// per workload, and — in a separate traced pass — a ladder of per-layer
// metrics measured from outside, by timing calls into each layer's
// public functions. See README.md beside this file.
//
// The benchmark driver runs
//
//	e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Without --workload every workload runs both passes and a table is
// printed; --repeat N runs the repeatability check instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one pass over one workload produced; its JSON form is
// the line the benchmark driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// driverLine is what the benchmark driver reads of a pass: of the
// untraced pass the metrics BENCHMARK.json lists as end-to-end, of the
// traced pass all of them.
func (r *result) driverLine(trace int) *result {
	if trace == 1 {
		return r
	}
	line := *r
	line.Metrics = map[string]metric{}
	for _, m := range endToEnd {
		line.Metrics[m.name] = r.Metrics[m.name]
	}
	return &line
}

// wholeRun lists what the untraced pass measures over its whole timed
// phase, with units, in report order. endToEnd is the part of it that
// BENCHMARK.json bounds and the driver's JSON line carries: the three
// timing metrics do not repeat within their 10 % bound on this box
// (README.md, "Repeatability"), so they are per-layer metrics there,
// reported without a bound by the traced pass. perLayer (layers.go)
// lists that pass's metrics.
var wholeRun = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"alloc_mb_per_job", "MB"},
	{"allocs_per_job", "count"},
}

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"alloc_mb_per_job", "MB"},
	{"allocs_per_job", "count"},
}

// demotedBound is the bound ISSUE 13 fixed for the timing metrics; the
// repeatability check still holds them to it, to show where they stand.
const demotedBound = 0.10

// environment is stamped into every output file.
type environment struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	out      string
}

func (o options) scale() scale {
	if o.quick {
		return quickScale
	}
	return fullScale
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func (o options) env() environment {
	return environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
	}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadOrder, ", ")+") and print its metrics as one JSON line; empty runs all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase measures")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "small inputs and short phases (what the tests run)")
	flag.IntVar(&o.repeat, "repeat", 0, "run two sets of N full runs of every workload and compare their medians against the bounds (5 is customary)")
	flag.StringVar(&o.out, "out", "benchmarks/e2e/out", "directory for spans and metric JSON")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.repeat > 0:
		return repeatability(o)
	case o.workload != "":
		res, err := runPass(o, o.workload)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res.driverLine(o.trace))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	for _, name := range workloadOrder {
		for _, o.trace = range []int{0, 1} {
			res, err := runPass(o, name)
			if err != nil {
				return err
			}
			printTable(name, o.trace, res)
		}
	}
	return nil
}

// runPass runs one pass over one workload and writes its output files.
func runPass(o options, name string) (*result, error) {
	var res *result
	var spans []span
	var err error
	if o.trace == 0 {
		res, err = timedPass(name, o.seed, o.duration(), o.scale())
	} else {
		res, spans, err = tracedPass(name, o.seed, o.duration(), o.scale())
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(o.out, fmt.Sprintf("%s.trace%d", name, o.trace))
	if err := writeJSON(stem+".metrics.json", struct {
		Env      environment `json:"env"`
		Workload string      `json:"workload"`
		*result
	}{o.env(), name, res}); err != nil {
		return nil, err
	}
	if o.trace == 1 {
		if err := writeJSON(filepath.Join(o.out, "trace.json"), struct {
			Env      environment `json:"env"`
			Workload string      `json:"workload"`
			Spans    []span      `json:"spans"`
		}{o.env(), name, spans}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// warmOffset keeps warm-up jobs off the timed jobs' indices. It is a
// multiple of every round-robin period and client count in use, so
// warm-up job k has the template and the client of timed job k.
const warmOffset = 88 << 20

// setUp is one complete set-up: generate the corpus, compute the
// reference answers, build the context or service, run the fixed
// warm-up jobs.
func setUp(name string, seed uint64, sc scale) (workload, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := w.setup(seed, sc); err != nil {
		return nil, err
	}
	warm := runLoop(w.clients(), exactly(sc.warmup[name]), func(_, i int) error { return w.job(warmOffset + i) })
	if warm.failed > 0 {
		w.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up jobs failed", name, warm.failed, warm.attempted)
	}
	return w, nil
}

// timedPass is the untraced pass: set up (several times — setup_s is
// the median, the last set-up is the one measured on), collect garbage,
// then drive the closed loop for dur.
func timedPass(name string, seed uint64, dur time.Duration, sc scale) (*result, error) {
	var w workload
	var setups []float64
	for k := 0; k < sc.setups; k++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		if k == 0 {
			t0 = processStart // the first set-up also pays for process start
		}
		var err error
		if w, err = setUp(name, seed, sc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	p := runLoop(w.clients(), limits{minJobs: sc.minJobs, dur: dur}, func(_, i int) error { return w.job(i) })
	jobs := float64(p.attempted)
	values := map[string]float64{
		"setup_s":          medianOf(setups),
		"job_p50_ms":       ms(median(p.latencies)),
		"job_p90_ms":       ms(percentile(p.latencies, 0.9)),
		"jobs_per_s":       jobs / p.wall.Seconds(),
		"alloc_mb_per_job": float64(p.allocBytes) / 1e6 / jobs,
		"allocs_per_job":   float64(p.mallocs) / jobs,
	}
	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	for _, m := range wholeRun {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

func printTable(name string, trace int, res *result) {
	pass := "whole run (untraced pass)"
	if trace == 1 {
		pass = "per-layer (traced pass)"
	}
	fmt.Printf("\n%s — %s: jobs_attempted=%d jobs_failed=%d\n", name, pass, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// repeatability runs two sets of N full runs of every workload, each
// run a fresh process as the benchmark driver starts it, and prints per
// workload × whole-run metric the two medians, their relative
// difference and PASS/FAIL: the two sets are the same code, so they
// must agree within the bound in either direction. The demoted timing
// metrics are held to the bound the issue gave them, marked as such;
// only a metric BENCHMARK.json bounds fails the check.
func repeatability(o options) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadOrder
	if o.workload != "" {
		names = []string{o.workload}
	}
	// sets[set][workload][metric] holds the N values.
	var sets [2]map[string]map[string][]float64
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
		for _, name := range names {
			sets[set][name] = map[string][]float64{}
			for k := 0; k < o.repeat; k++ {
				args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed + uint64(k)),
					"-seconds", fmt.Sprint(o.seconds), "-out", o.out}
				if o.quick {
					args = append(args, "-quick")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("run %d of %s: %w", k, name, err)
				}
				// The run's standard output carries the bounded metrics only;
				// its metrics file has the whole run.
				raw, err := os.ReadFile(filepath.Join(o.out, name+".trace0.metrics.json"))
				if err != nil {
					return fmt.Errorf("run %d of %s: %w", k, name, err)
				}
				var res result
				if err := json.Unmarshal(raw, &res); err != nil {
					return fmt.Errorf("run %d of %s: %w", k, name, err)
				}
				if !res.Correct {
					return fmt.Errorf("run %d of %s: %d of %d jobs failed", k, name, res.Failed, res.Attempted)
				}
				for m, v := range res.Metrics {
					sets[set][name][m] = append(sets[set][name][m], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d/%d done\n", set+1, name, k+1, o.repeat)
			}
		}
	}
	fmt.Printf("| workload | metric | median A | median B | B vs A | bound | |\n|---|---|---:|---:|---:|---:|---|\n")
	failed := 0
	for _, name := range names {
		for _, m := range wholeRun {
			a, b := medianOf(sets[0][name][m.name]), medianOf(sets[1][name][m.name])
			diff := (b - a) / a
			bound, bounded := bounds[m.name]
			if !bounded {
				bound = demotedBound
			}
			verdict := "PASS"
			if math.Abs(diff) > bound {
				verdict = "FAIL"
				if bounded {
					failed++
				}
			}
			if !bounded {
				verdict += " (demoted)"
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.2f%% | %.0f%% | %s |\n",
				name, m.name, a, b, 100*diff, 100*bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload×end-to-end metric pairs disagree by more than their bound", failed)
	}
	return nil
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json, the one
// place they are fixed.
func loadBounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
