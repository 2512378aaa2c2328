package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentAdds(t *testing.T) {
	var c Counter
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	c.Add(-5) // negative deltas are ignored
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter after negative add = %d", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	buckets, sum, count := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if sum != 560.5 {
		t.Fatalf("sum = %v", sum)
	}
	wantCum := []int64{1, 3, 4, 5} // le=1, le=10, le=100, le=+Inf
	for i, b := range buckets {
		if b.CumulativeCount != wantCum[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.UpperBound, b.CumulativeCount, wantCum[i])
		}
	}
	if !math.IsInf(buckets[len(buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket is not +Inf")
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(1) // exactly on a bound: le="1" is inclusive
	buckets, _, _ := h.snapshot()
	if buckets[0].CumulativeCount != 1 {
		t.Fatalf("boundary observation missed its bucket: %+v", buckets)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("x_total", "x", "p")
	b := r.CounterVec("x_total", "other help ignored", "p")
	a.With("java").Add(3)
	if got := b.With("java").Value(); got != 3 {
		t.Fatalf("re-registered family not shared: %d", got)
	}
}

func TestSetFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.SetFunc("f", "h", "gauge", nil, func() []Sample { return []Sample{{Value: 1}} })
	r.SetFunc("f", "h", "gauge", nil, func() []Sample { return []Sample{{Value: 2}} })
	snap := r.Snapshot()
	v, ok := snap.Counter("f", nil)
	if !ok || v != 2 {
		t.Fatalf("callback family not replaced: %v %v", v, ok)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "c", "p")
	cv.With("java").Add(7)
	hv := r.HistogramVec("h_seconds", "h", []float64{1, 2}, "p")
	hv.With("java").Observe(1.5)

	snap := r.Snapshot()
	// Mutate the snapshot every way a caller could.
	for i := range snap.Families {
		f := &snap.Families[i]
		f.Name = "clobbered"
		for j := range f.Samples {
			f.Samples[j].Value = -999
			for k := range f.Samples[j].Buckets {
				f.Samples[j].Buckets[k].CumulativeCount = -999
			}
			for key := range f.Samples[j].Labels {
				f.Samples[j].Labels[key] = "clobbered"
			}
		}
	}
	fresh := r.Snapshot()
	if v, ok := fresh.Counter("c_total", map[string]string{"p": "java"}); !ok || v != 7 {
		t.Fatalf("registry state aliased by snapshot mutation: %v %v", v, ok)
	}
	if n, ok := fresh.HistogramCount("h_seconds", map[string]string{"p": "java"}); !ok || n != 1 {
		t.Fatalf("histogram state aliased: %v %v", n, ok)
	}
}

func TestWritePromRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("rheem_atoms_total", "Atoms.", "platform", "status").With("java", "ok").Add(4)
	r.SetFunc("rheem_occupancy", "Occupancy.", "gauge", []string{"platform"}, func() []Sample {
		return []Sample{{Labels: []Label{{Name: "platform", Value: `we"ird\pla
tform`}}, Value: 1.5}}
	})
	r.HistogramVec("rheem_atom_latency_seconds", "Latency.", LatencyBuckets, "platform").
		With("sparksim").Observe(0.003)
	r.SetFunc("rheem_breaker_state", "Breaker.", "gauge", []string{"platform"}, func() []Sample {
		return []Sample{{Labels: []Label{{Name: "platform", Value: "java"}}, Value: 0}}
	})

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	families, err := ParseProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition does not parse:\n%s\nerror: %v", out, err)
	}
	byName := map[string]ParsedFamily{}
	for _, f := range families {
		byName[f.Name] = f
	}
	atoms := byName["rheem_atoms_total"]
	if atoms.Type != "counter" || len(atoms.Samples) != 1 {
		t.Fatalf("rheem_atoms_total parsed wrong: %+v", atoms)
	}
	s := atoms.Samples[0]
	if s.Value != 4 || s.Labels["platform"] != "java" || s.Labels["status"] != "ok" {
		t.Fatalf("sample parsed wrong: %+v", s)
	}
	if got := byName["rheem_occupancy"].Samples[0].Labels["platform"]; got != "we\"ird\\pla\ntform" {
		t.Fatalf("label escaping did not round-trip: %q", got)
	}
	hist := byName["rheem_atom_latency_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram type = %q", hist.Type)
	}
	var count float64
	for _, s := range hist.Samples {
		if s.Name == "rheem_atom_latency_seconds_count" {
			count = s.Value
		}
	}
	if count != 1 {
		t.Fatalf("histogram count = %v", count)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	cases := []string{
		"rheem_x 1\n", // sample without TYPE
		"# TYPE rheem_x counter\nrheem_x notnum\n", // bad value
		"# TYPE rheem_x wat\n",                     // bad type
		"# TYPE 9bad counter\n",                    // bad name
		"# TYPE rheem_h histogram\nrheem_h_bucket{le=\"1\"} 1\nrheem_h_sum 1\n", // no +Inf/_count
	}
	for _, in := range cases {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("ParseProm accepted %q", in)
		}
	}
}

func TestCheckName(t *testing.T) {
	for _, good := range []string{"a", "rheem_atoms_total", "A:b_9"} {
		if err := checkName(good); err != nil {
			t.Errorf("checkName(%q) = %v", good, err)
		}
	}
	for _, bad := range []string{"", "9x", "a-b", "a b", "é"} {
		if err := checkName(bad); err == nil {
			t.Errorf("checkName(%q) accepted", bad)
		}
	}
}

// TestWithExistingChildAllocatesNothing: every span end looks up
// two-label children (rheem_atoms_total{platform,status}); finding one
// that exists builds its key on the stack, and only a new child's key
// becomes a string.
func TestWithExistingChildAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("lookups_total", "Lookups.", "platform", "status")
	hv := r.HistogramVec("lookup_seconds", "Lookups.", LatencyBuckets, "platform", "format")
	cv.With("java", "ok").Inc()
	hv.With("java", "batch").Observe(1)
	if got := testing.AllocsPerRun(100, func() {
		cv.With("java", "ok").Inc()
		hv.With("java", "batch").Observe(1)
	}); got != 0 {
		t.Errorf("looking up existing two-label children made %.0f allocations, want 0", got)
	}
	cv.With("sparksim", "error").Add(2)
	snap := r.Snapshot()
	// java/ok: one call before the window, and AllocsPerRun's 101.
	for labels, want := range map[[2]string]float64{{"java", "ok"}: 102, {"sparksim", "error"}: 2} {
		if got, ok := snap.Counter("lookups_total", map[string]string{"platform": labels[0], "status": labels[1]}); !ok || got != want {
			t.Errorf("lookups_total%v = %v (present=%v), want %v", labels, got, ok, want)
		}
	}
}
