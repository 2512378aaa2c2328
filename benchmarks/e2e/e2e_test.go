package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rheem/internal/data"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// quickOptions is the -quick scale the tier-1 run uses: the same code
// paths as the full benchmark, in well under ten seconds for all four
// workloads.
func quickOptions(t *testing.T, trace int) options {
	return options{seed: 1, seconds: 0.2, trace: trace, quick: true, out: t.TempDir()}
}

// checkMetrics asserts that a pass reported exactly the named metrics,
// each finite and with its unit, and that no job failed.
func checkMetrics(t *testing.T, res *result, want []struct{ name, unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.name, got.Value)
		case got.Unit != m.unit:
			t.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		}
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.name)
		}
	}
}

func TestQuickPasses(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			o := quickOptions(t, 0)
			res, err := runPass(o, name)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, wholeRun)
			for _, m := range wholeRun {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("whole-run metric %s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
			// The driver is shown the bounded metrics and no others.
			checkMetrics(t, res.driverLine(0), endToEnd)

			o.trace = 1
			res, err = runPass(o, name)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			checkMetrics(t, res.driverLine(1), perLayer)
			// The layer spans' self times must account for the job spans.
			if got := res.Metrics["trace.attributed_pct"].Value; got < 95 {
				t.Errorf("layer spans attribute %.1f%% of job wall time, want at least 95%%", got)
			}

			// Every output file says where its numbers come from.
			for _, file := range []string{name + ".trace0.metrics.json", name + ".trace1.metrics.json", "trace.json"} {
				raw, err := os.ReadFile(filepath.Join(o.out, file))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Env   environment `json:"env"`
					Spans []span      `json:"spans"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				if doc.Env.GoVersion == "" || doc.Env.NumCPU < 1 || doc.Env.GOMAXPROCS < 1 || doc.Env.Commit == "" || doc.Env.Seed != o.seed {
					t.Errorf("%s: incomplete environment %+v", file, doc.Env)
				}
				if file == "trace.json" && len(doc.Spans) == 0 {
					t.Errorf("%s holds no spans", file)
				}
			}
		})
	}
}

// Same seed, same generated inputs, byte for byte; another seed, other
// inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	digest := func(name string, seed uint64) string {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(seed, quickScale); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		return w.inputDigest()
	}
	for _, name := range workloadOrder {
		a, again, b := digest(name, 7), digest(name, 7), digest(name, 8)
		if a != again {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// The service tallies of the traced pass cover the ladder's jobs only:
// what the warm-up ran is gone after a reset.
func TestTalliesResetAfterWarmUp(t *testing.T) {
	w := &serviceHTTP{}
	if err := w.setup(5, quickScale); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := 0; i < 4; i++ {
		if err := w.job(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, variants := w.tallies(); variants < 1 {
		t.Fatalf("four jobs tallied %v plan variants per spec", variants)
	}
	w.resetTallies()
	if polls, shed, variants := w.tallies(); polls != 0 || shed != 0 || variants != 0 {
		t.Errorf("after a reset the tallies read %v polls, %v shed, %v variants", polls, shed, variants)
	}
	if err := w.job(0); err != nil {
		t.Fatalf("a job after the reset: %v", err)
	}
	if _, _, variants := w.tallies(); variants != 1 {
		t.Errorf("one job after the reset tallied %v plan variants per spec, want 1", variants)
	}
}

// A deliberately corrupted result must count as a failed job, on every
// workload's own verification.
func TestCorruptedResultIsCaught(t *testing.T) {
	for _, name := range workloadOrder {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(3, quickScale); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 11; i++ { // every template and built-in once
			p, err := w.build(nil, i, 0)
			if err != nil {
				t.Fatal(err)
			}
			run, err := runLayers(w.engine(), nil, w, p, nil, i, 0)
			if err != nil {
				t.Fatal(err)
			}
			recs := run.res.Records
			if err := w.verify(i, recs); err != nil {
				t.Fatalf("%s job %d: the true result is rejected: %v", name, i, err)
			}
			if len(recs) == 0 {
				continue
			}
			if err := w.verify(i, recs[1:]); err == nil {
				t.Errorf("%s job %d: a dropped row went unnoticed", name, i)
			}
			bad := append([]data.Record(nil), recs...)
			bad[0] = corrupt(bad[0])
			if err := w.verify(i, bad); err == nil {
				t.Errorf("%s job %d: a corrupted field went unnoticed", name, i)
			}
		}
		w.close()
	}
}

// corrupt nudges a record's last field: off by one, off by a part in a
// million (well outside the float tolerance), or a changed string.
func corrupt(r data.Record) data.Record {
	last := r.Len() - 1
	switch v := r.Field(last); v.Kind() {
	case data.KindInt:
		return r.WithField(last, data.Int(v.Int()+1))
	case data.KindFloat:
		return r.WithField(last, data.Float(v.Float()*(1+1e-6)+1e-6))
	case data.KindVector:
		vec := append([]float64(nil), v.Vec()...)
		vec[0] = vec[0]*(1+1e-6) + 1e-6
		return r.WithField(last, data.Vec(vec))
	default:
		return r.WithField(last, data.Str(v.Str()+"x"))
	}
}

// The HTTP path compares JSON: integers exactly, floats within the
// tolerance, and nothing else passes.
func TestJSONRowsAreVerified(t *testing.T) {
	want := newAnswer([]row{{int64(1 << 60), 2.5, "a", []float64{1, 2}}}, true)
	decode := func(s string) [][]any {
		var raw [][]any
		dec := json.NewDecoder(strings.NewReader(s))
		dec.UseNumber()
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for body, ok := range map[string]bool{
		`[[1152921504606846976, 2.5, "a", [1, 2]]]`:             true,
		`[[1152921504606846976, 2.5000000000001, "a", [1, 2]]]`: true, // within 1e-9
		`[[1152921504606846977, 2.5, "a", [1, 2]]]`:             false,
		`[[1152921504606846976, 2.50001, "a", [1, 2]]]`:         false,
		`[[1152921504606846976, 2.5, "b", [1, 2]]]`:             false,
		`[[1152921504606846976, 2.5, "a", [1, 2.1]]]`:           false,
		`[]`: false,
	} {
		got, err := rowsFromJSON(decode(body), want.rows)
		if err == nil {
			err = want.check(got)
		}
		if (err == nil) != ok {
			t.Errorf("%s: verified=%v, want %v (%v)", body, err == nil, ok, err)
		}
	}
}

func TestSelfTimeTakesTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Job: 1, ID: 1, Name: rootSpan, Start: 0, End: 100},
		{Job: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{Job: 1, ID: 3, Parent: 1, Name: "b", Start: 40, End: 90}, // overlaps a
		{Job: 1, ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
	}
	self := selfTimes(spans)[1]
	for name, want := range map[string]int64{rootSpan: 20, "a": 30, "b": 50, "c": 10} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	if got := attributedShare(spans); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("attributed share = %v, want 0.8", got)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadOrder[i])
		}
	}
	same := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
