package cost

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func obs(kind, platform string, est, act time.Duration) AtomObs {
	return AtomObs{Kind: kind, Platform: platform, Estimated: est, Actual: act}
}

// Property: under a constant observed ratio, the factor converges
// toward that ratio and the log-distance to it never increases.
func TestCalibratorMonotoneConvergence(t *testing.T) {
	for _, ratio := range []float64{4.0, 0.25, 1.5, 1.0} {
		cal := NewCalibrator(CalibratorConfig{MinSamples: 1})
		target := ratio
		if target > DefaultMaxFactor {
			target = DefaultMaxFactor
		}
		if target < DefaultMinFactor {
			target = DefaultMinFactor
		}
		prev := math.Abs(math.Log(cal.CostFactor("Map", "java")) - math.Log(target))
		for i := 0; i < 50; i++ {
			est := 100 * time.Millisecond
			cal.Fold([]AtomObs{obs("Map", "java", est, time.Duration(float64(est)*ratio))}, nil)
			f := cal.CostFactor("Map", "java")
			dist := math.Abs(math.Log(f) - math.Log(target))
			if dist > prev+1e-9 {
				t.Fatalf("ratio %v step %d: log-distance grew %v -> %v (factor %v)", ratio, i, prev, dist, f)
			}
			prev = dist
		}
		if f := cal.CostFactor("Map", "java"); math.Abs(math.Log(f)-math.Log(target)) > 0.05 {
			t.Fatalf("ratio %v: factor %v did not converge to %v", ratio, f, target)
		}
	}
}

// Property: decay favors recent traffic — after the workload shifts
// from ratio a to ratio b, the factor ends closer to b than to a.
func TestCalibratorDecayTracksRecentRatio(t *testing.T) {
	cal := NewCalibrator(CalibratorConfig{Decay: 0.5, MinSamples: 1})
	est := time.Second
	for i := 0; i < 20; i++ {
		cal.Fold([]AtomObs{obs("Join", "spark", est, 8*est)}, nil)
	}
	for i := 0; i < 20; i++ {
		cal.Fold([]AtomObs{obs("Join", "spark", est, est/8)}, nil)
	}
	f := cal.CostFactor("Join", "spark")
	if math.Abs(math.Log(f)-math.Log(1.0/8)) > math.Abs(math.Log(f)-math.Log(8.0)) {
		t.Fatalf("factor %v closer to the stale ratio 8 than the recent 1/8", f)
	}
}

// Property: whatever is folded — including adversarial values — every
// factor stays a positive, finite number within the configured clamp.
func TestCalibratorFactorAlwaysSafe(t *testing.T) {
	cal := NewCalibrator(CalibratorConfig{MinSamples: 1})
	rng := rand.New(rand.NewSource(7))
	hostile := []AtomObs{
		obs("Map", "java", 0, time.Second),
		obs("Map", "java", time.Second, 0),
		obs("Map", "java", -time.Second, time.Second),
		obs("Map", "java", time.Second, -time.Second),
		obs("", "java", time.Second, time.Second),
		obs("Map", "", time.Second, time.Second),
		obs("Map", "java", 1, time.Duration(math.MaxInt64)),
		obs("Map", "java", time.Duration(math.MaxInt64), 1),
	}
	cal.Fold(hostile, []CardObs{
		{Kind: "Filter", Estimated: 0, Actual: 100},
		{Kind: "Filter", Estimated: 100, Actual: 0},
		{Kind: "Filter", Estimated: -5, Actual: -5},
		{Kind: "", Estimated: 10, Actual: 10},
		{Kind: "Filter", Estimated: 1, Actual: math.MaxInt64},
	})
	for i := 0; i < 500; i++ {
		cal.Fold([]AtomObs{obs("Map", "java",
			time.Duration(rng.Int63n(int64(time.Hour))+1),
			time.Duration(rng.Int63n(int64(time.Hour))+1))}, nil)
		for _, f := range []float64{
			cal.CostFactor("Map", "java"),
			cal.CostFactor("Filter", "nope"),
			cal.CardFactor("Filter"),
			cal.CardFactor("unseen"),
		} {
			if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
				t.Fatalf("unsafe factor %v", f)
			}
			if f < DefaultMinFactor-1e-12 || f > DefaultMaxFactor+1e-12 {
				t.Fatalf("factor %v outside clamp [%v, %v]", f, DefaultMinFactor, DefaultMaxFactor)
			}
		}
	}
}

func TestCalibratorEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		cfg   CalibratorConfig
		atoms []AtomObs
		cards []CardObs
		kind  string
		plat  string
		want  float64 // 0 means "just assert safe", else exact expectation
	}{
		{
			name:  "zero actual carries no signal",
			cfg:   CalibratorConfig{MinSamples: 1},
			atoms: []AtomObs{obs("Map", "java", time.Second, 0)},
			kind:  "Map", plat: "java", want: 1,
		},
		{
			name:  "zero estimate carries no signal",
			cfg:   CalibratorConfig{MinSamples: 1},
			atoms: []AtomObs{obs("Map", "java", 0, time.Second)},
			kind:  "Map", plat: "java", want: 1,
		},
		{
			name:  "single sample below default guard",
			atoms: []AtomObs{obs("Map", "java", time.Second, 10*time.Second)},
			kind:  "Map", plat: "java", want: 1,
		},
		{
			name: "single sample with guard of one applies",
			cfg:  CalibratorConfig{MinSamples: 1},
			atoms: []AtomObs{
				obs("Map", "java", time.Second, 4*time.Second),
			},
			kind: "Map", plat: "java", want: 4,
		},
		{
			name: "conflicting platforms stay independent",
			cfg:  CalibratorConfig{MinSamples: 1},
			atoms: []AtomObs{
				obs("Map", "java", time.Second, 8*time.Second),
				obs("Map", "spark", 8*time.Second, time.Second),
			},
			kind: "Map", plat: "java", want: 8,
		},
		{
			name: "extreme ratio clamps to max factor",
			cfg:  CalibratorConfig{MinSamples: 1},
			atoms: []AtomObs{
				obs("Map", "java", 1, time.Duration(math.MaxInt64)),
			},
			kind: "Map", plat: "java", want: DefaultMaxFactor,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cal := NewCalibrator(tc.cfg)
			cal.Fold(tc.atoms, tc.cards)
			f := cal.CostFactor(tc.kind, tc.plat)
			if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
				t.Fatalf("unsafe factor %v", f)
			}
			if tc.want != 0 && math.Abs(f-tc.want) > 1e-9 {
				t.Fatalf("factor = %v, want %v", f, tc.want)
			}
		})
	}
}

func TestCalibratorNilReceiverSafe(t *testing.T) {
	var cal *Calibrator
	cal.Fold([]AtomObs{obs("Map", "java", 1, 2)}, []CardObs{{Kind: "Map", Estimated: 1, Actual: 2}})
	if f := cal.CostFactor("Map", "java"); f != 1 {
		t.Fatalf("nil CostFactor = %v, want 1", f)
	}
	if f := cal.CardFactor("Map"); f != 1 {
		t.Fatalf("nil CardFactor = %v, want 1", f)
	}
	if n := cal.Folds(); n != 0 {
		t.Fatalf("nil Folds = %d, want 0", n)
	}
	if s := cal.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot = %v, want nil", s)
	}
	if b, err := cal.MarshalJSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil MarshalJSON = %s, %v; want null", b, err)
	}
	if err := cal.UnmarshalJSON([]byte("{}")); err == nil {
		t.Fatal("nil UnmarshalJSON accepted a document")
	}
}

func TestCalibratorCardFactorGuard(t *testing.T) {
	cal := NewCalibrator(CalibratorConfig{MinSamples: 3})
	for i := 0; i < 2; i++ {
		cal.Fold(nil, []CardObs{{Kind: "Filter", Estimated: 100, Actual: 400}})
	}
	if f := cal.CardFactor("Filter"); f != 1 {
		t.Fatalf("guarded CardFactor = %v, want 1", f)
	}
	cal.Fold(nil, []CardObs{{Kind: "Filter", Estimated: 100, Actual: 400}})
	if f := cal.CardFactor("Filter"); math.Abs(f-4) > 1e-9 {
		t.Fatalf("warm CardFactor = %v, want 4", f)
	}
}

func warmedCalibrator(t *testing.T) *Calibrator {
	t.Helper()
	cal := NewCalibrator(CalibratorConfig{Decay: 0.7, MinSamples: 2, MinFactor: 0.1, MaxFactor: 10})
	rng := rand.New(rand.NewSource(11))
	kinds := []string{"Map", "Filter", "ReduceBy", "Join", "Sort"}
	plats := []string{"java", "sparksim", "relational"}
	for i := 0; i < 40; i++ {
		k, p := kinds[rng.Intn(len(kinds))], plats[rng.Intn(len(plats))]
		est := time.Duration(rng.Int63n(int64(time.Second)) + 1)
		act := time.Duration(rng.Int63n(int64(time.Second)) + 1)
		cal.Fold([]AtomObs{obs(k, p, est, act)},
			[]CardObs{{Kind: k, Estimated: rng.Int63n(1000) + 1, Actual: rng.Int63n(1000) + 1}})
	}
	return cal
}

// The document round-trips: unmarshalling what MarshalJSON wrote into
// a calibrator of another config adopts config, counts and cells, and
// marshalling again gives the same bytes.
func TestCalibratorCodecRoundTrip(t *testing.T) {
	cal := warmedCalibrator(t)
	enc, err := json.Marshal(cal)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewCalibrator(CalibratorConfig{})
	if err := json.Unmarshal(enc, dec); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(cal.Snapshot(), dec.Snapshot()) {
		t.Fatalf("snapshot mismatch after round trip:\n%+v\nvs\n%+v", cal.Snapshot(), dec.Snapshot())
	}
	if cal.Folds() != dec.Folds() {
		t.Fatalf("folds %d != %d", cal.Folds(), dec.Folds())
	}
	re, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("encode not deterministic across decode:\n%s\nvs\n%s", enc, re)
	}
	// An empty calibrator round-trips too.
	empty, err := json.Marshal(NewCalibrator(CalibratorConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	dec2 := NewCalibrator(CalibratorConfig{MinSamples: 1})
	if err := json.Unmarshal(empty, dec2); err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got := dec2.CostFactor("Map", "java"); got != 1 {
		t.Fatalf("empty decoded factor = %v", got)
	}
}

// Every document that breaks a rule is rejected with an error naming
// the calibration, and the receiver keeps its state. Two of the cases
// are states only a restore can produce: a cost cell with samples but
// no weight (reported applied while the optimizer priced it at 1) and
// a card cell without a kind.
func TestCalibratorDecodeRejectsCorruption(t *testing.T) {
	valid, err := json.Marshal(warmedCalibrator(t))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(s *CalibrationSnapshot)) []byte {
		s := warmedCalibrator(t).Snapshot()
		f(s)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string][]byte{
		"empty":          nil,
		"null":           []byte("null"),
		"binary":         []byte("RHCAL\x01rest"),
		"truncated":      valid[:len(valid)/2],
		"trailing":       append(append([]byte{}, valid...), "{}"...),
		"unknown field":  append([]byte(`{"extra":1,`), valid[1:]...),
		"NaN":            bytes.Replace(valid, []byte(`"decay":0.7`), []byte(`"decay":NaN`), 1),
		"out of range":   bytes.Replace(valid, []byte(`"decay":0.7`), []byte(`"decay":1e999`), 1),
		"no schema":      edit(func(s *CalibrationSnapshot) { s.Schema = 0 }),
		"future schema":  edit(func(s *CalibrationSnapshot) { s.Schema = calibrationSchema + 1 }),
		"bad config":     edit(func(s *CalibrationSnapshot) { s.Decay = 1.5 }),
		"swapped clamp":  edit(func(s *CalibrationSnapshot) { s.MinFactor, s.MaxFactor = s.MaxFactor, s.MinFactor }),
		"negative folds": edit(func(s *CalibrationSnapshot) { s.Folds = -1 }),
		"negative samples": edit(func(s *CalibrationSnapshot) {
			s.Cost[0].Samples, s.Cost[0].Weight = -1, 0
		}),
		"negative weight": edit(func(s *CalibrationSnapshot) {
			s.Card[0].Weight, s.Card[0].Samples = -1, 0
		}),
		"weight without samples": edit(func(s *CalibrationSnapshot) { s.Card[0].Samples = 0 }),
		"samples without weight": edit(func(s *CalibrationSnapshot) {
			s.Cost[0].Weight, s.Cost[0].Samples = 0, 9
		}),
		"card cell without kind":     edit(func(s *CalibrationSnapshot) { s.Card[0].Kind = "" }),
		"cost cell without kind":     edit(func(s *CalibrationSnapshot) { s.Cost[0].Kind = "" }),
		"cost cell without platform": edit(func(s *CalibrationSnapshot) { s.Cost[0].Platform = "" }),
		"card cell with platform":    edit(func(s *CalibrationSnapshot) { s.Card[0].Platform = "java" }),
		"duplicate cost cell":        edit(func(s *CalibrationSnapshot) { s.Cost[1] = s.Cost[0] }),
		"cost cells out of order": edit(func(s *CalibrationSnapshot) {
			s.Cost[0], s.Cost[1] = s.Cost[1], s.Cost[0]
		}),
		"card cells out of order": edit(func(s *CalibrationSnapshot) { slices.Reverse(s.Card) }),
	}
	for name, b := range cases {
		cal := NewCalibrator(CalibratorConfig{MinSamples: 1})
		cal.Fold([]AtomObs{obs("Map", "java", time.Second, 2*time.Second)}, nil)
		before := cal.Snapshot()
		err := cal.UnmarshalJSON(b)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "cost: calibration") {
			t.Errorf("%s: error %q does not name the calibration", name, err)
		}
		if !reflect.DeepEqual(before, cal.Snapshot()) {
			t.Errorf("%s: a rejected document changed the calibrator", name)
		}
	}
}

// Unmarshalling into a warmed calibrator adopts the document whole —
// the calibrator's own cells are gone — and shares no cell with the
// calibrator that wrote it.
func TestCalibratorReplace(t *testing.T) {
	shared := NewCalibrator(CalibratorConfig{MinSamples: 1})
	shared.Fold([]AtomObs{obs("OnlyHere", "java", time.Second, 2*time.Second)}, nil)
	warmed := warmedCalibrator(t)
	doc, err := json.Marshal(warmed)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, shared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared.Snapshot(), warmed.Snapshot()) {
		t.Fatal("UnmarshalJSON did not adopt the document")
	}
	// Folding into either side must not leak into the other.
	before := shared.CostFactor("Map", "java")
	for i := 0; i < 10; i++ {
		warmed.Fold([]AtomObs{obs("Map", "java", time.Second, 9*time.Second)}, nil)
	}
	if got := shared.CostFactor("Map", "java"); got != before {
		t.Fatalf("restored state aliases the source's cells: %v -> %v", before, got)
	}
	snap := warmed.Snapshot()
	shared.Fold(nil, []CardObs{{Kind: "Map", Estimated: 1, Actual: 1000}})
	if !reflect.DeepEqual(snap, warmed.Snapshot()) {
		t.Fatal("folding into the restored calibrator changed the source")
	}

	// -race: readers and folds see either state whole while the
	// document is unmarshalled into the calibrator they share.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if f := shared.CostFactor("Map", "java"); !(f > 0) {
					t.Errorf("unsafe factor during replace: %v", f)
					return
				}
				shared.Fold([]AtomObs{obs("Map", "java", time.Second, 2*time.Second)}, nil)
				if _, err := json.Marshal(shared); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := json.Unmarshal(doc, shared); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// -race stress: concurrent folds (runs completing) while readers (the
// optimizer pricing plans) pull factors and snapshots.
func TestCalibratorConcurrentFoldAndRead(t *testing.T) {
	cal := NewCalibrator(CalibratorConfig{MinSamples: 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				cal.Fold([]AtomObs{obs("Map", "java",
					time.Duration(rng.Int63n(int64(time.Second))+1),
					time.Duration(rng.Int63n(int64(time.Second))+1))},
					[]CardObs{{Kind: "Map", Estimated: rng.Int63n(100) + 1, Actual: rng.Int63n(100) + 1}})
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if f := cal.CostFactor("Map", "java"); math.IsNaN(f) || f <= 0 {
					t.Errorf("unsafe factor under concurrency: %v", f)
					return
				}
				cal.CardFactor("Map")
				cal.Snapshot()
				if _, err := json.Marshal(cal); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Wait for writers, then release readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	if cal.Folds() != 4*300 {
		t.Fatalf("folds = %d, want %d", cal.Folds(), 4*300)
	}
}

func TestCalibratorConfigDefaults(t *testing.T) {
	cfg := CalibratorConfig{}.withDefaults()
	if cfg.Decay != DefaultDecay || cfg.MinSamples != DefaultMinSamples ||
		cfg.MinFactor != DefaultMinFactor || cfg.MaxFactor != DefaultMaxFactor {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	inv := CalibratorConfig{Decay: 2, MinSamples: -1, MinFactor: -3, MaxFactor: math.NaN()}.withDefaults()
	if inv.Decay != DefaultDecay || inv.MinSamples != 1 ||
		inv.MinFactor != DefaultMinFactor || inv.MaxFactor != DefaultMaxFactor {
		t.Fatalf("invalid config not defaulted: %+v", inv)
	}
	swapped := CalibratorConfig{MinFactor: 8, MaxFactor: 2}.withDefaults()
	if swapped.MinFactor != 2 || swapped.MaxFactor != 8 {
		t.Fatalf("min/max not normalised: %+v", swapped)
	}
}
