package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rheem/internal/data"
)

func TestPointsShapeAndDeterminism(t *testing.T) {
	cfg := PointsConfig{N: 200, Dim: 5, Seed: 42}
	a := Points(cfg)
	b := Points(cfg)
	if len(a) != 200 {
		t.Fatalf("got %d points", len(a))
	}
	for i, r := range a {
		if err := PointsSchema.Validate(r); err != nil {
			t.Fatalf("point %d invalid: %v", i, err)
		}
		if l := r.Field(0).Float(); l != 1 && l != -1 {
			t.Fatalf("point %d label %v", i, l)
		}
		if len(r.Field(1).Vec()) != 5 {
			t.Fatalf("point %d dim %d", i, len(r.Field(1).Vec()))
		}
		if !data.EqualRecords(a[i], b[i]) {
			t.Fatalf("point %d not deterministic", i)
		}
	}
}

func TestPointsSeparable(t *testing.T) {
	// Without noise, the generating hyperplane w=1/√d should classify
	// the vast majority of points correctly.
	pts := Points(PointsConfig{N: 1000, Dim: 10, Seed: 7})
	correct := 0
	for _, p := range pts {
		var dot float64
		for _, x := range p.Field(1).Vec() {
			dot += x
		}
		if (dot > 0) == (p.Field(0).Float() > 0) {
			correct++
		}
	}
	if correct < 950 {
		t.Errorf("only %d/1000 points on the right side of the generating plane", correct)
	}
}

func TestPointsNoiseFlipsLabels(t *testing.T) {
	clean := Points(PointsConfig{N: 500, Dim: 4, Seed: 9})
	noisy := Points(PointsConfig{N: 500, Dim: 4, Noise: 0.3, Seed: 9})
	flips := 0
	for i := range clean {
		if clean[i].Field(0).Float() != noisy[i].Field(0).Float() {
			flips++
		}
	}
	if flips < 100 || flips > 220 {
		t.Errorf("noise=0.3 flipped %d/500 labels", flips)
	}
}

func TestTaxCleanDataSatisfiesRules(t *testing.T) {
	recs := Tax(TaxConfig{N: 2000, Zips: 50, ErrorRate: 0, Seed: 1})
	zipCity := map[string]string{}
	for i, r := range recs {
		if err := TaxSchema.Validate(r); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		zip, city := r.Field(TaxZip).Str(), r.Field(TaxCity).Str()
		if prev, ok := zipCity[zip]; ok && prev != city {
			t.Fatalf("clean data violates zip→city: %s → %s and %s", zip, prev, city)
		}
		zipCity[zip] = city
	}
	// Monotone salary→rate on clean data.
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < i+20 && j < len(recs); j++ {
			si, sj := recs[i].Field(TaxSalary).Float(), recs[j].Field(TaxSalary).Float()
			ri, rj := recs[i].Field(TaxRate).Float(), recs[j].Field(TaxRate).Float()
			if si > sj && ri < rj {
				t.Fatalf("clean data violates salary/rate DC at %d,%d", i, j)
			}
		}
	}
}

func TestTaxInjectsErrors(t *testing.T) {
	recs := Tax(TaxConfig{N: 5000, Zips: 50, ErrorRate: 0.1, Seed: 3})
	// Count zip→city conflicts: group by zip, count zips with >1 city.
	cities := map[string]map[string]bool{}
	for _, r := range recs {
		zip, city := r.Field(TaxZip).Str(), r.Field(TaxCity).Str()
		if cities[zip] == nil {
			cities[zip] = map[string]bool{}
		}
		cities[zip][city] = true
	}
	conflicted := 0
	for _, cs := range cities {
		if len(cs) > 1 {
			conflicted++
		}
	}
	if conflicted == 0 {
		t.Error("error injection produced no FD violations")
	}
}

func TestTaxDeterminism(t *testing.T) {
	a := Tax(TaxConfig{N: 100, Zips: 10, ErrorRate: 0.2, Seed: 5})
	b := Tax(TaxConfig{N: 100, Zips: 10, ErrorRate: 0.2, Seed: 5})
	for i := range a {
		if !data.EqualRecords(a[i], b[i]) {
			t.Fatalf("record %d differs between runs", i)
		}
	}
}

func TestGraph(t *testing.T) {
	recs := Graph(GraphConfig{Nodes: 100, Edges: 500, Seed: 11})
	if len(recs) != 500 {
		t.Fatalf("got %d edges", len(recs))
	}
	indeg := map[int64]int{}
	for i, r := range recs {
		if err := EdgeSchema.Validate(r); err != nil {
			t.Fatalf("edge %d invalid: %v", i, err)
		}
		src, dst := r.Field(0).Int(), r.Field(1).Int()
		if src == dst {
			t.Fatalf("self loop at %d", i)
		}
		if src < 0 || src >= 100 || dst < 0 || dst >= 100 {
			t.Fatalf("edge %d out of range: %d→%d", i, src, dst)
		}
		indeg[dst]++
	}
	// Preferential bias: low ids should attract more edges than high ids.
	low, high := 0, 0
	for node, d := range indeg {
		if node < 25 {
			low += d
		} else if node >= 75 {
			high += d
		}
	}
	if low <= high {
		t.Errorf("expected skew toward low ids, got low=%d high=%d", low, high)
	}
}

func TestZipfIntsSkewAndRange(t *testing.T) {
	recs := ZipfInts(5000, 100, 13)
	counts := map[int64]int{}
	for _, r := range recs {
		k := r.Field(0).Int()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("zipf not skewed: count[0]=%d count[50]=%d", counts[0], counts[50])
	}
}

func TestWords(t *testing.T) {
	recs := Words(100, 17)
	if len(recs) != 100 {
		t.Fatalf("got %d words", len(recs))
	}
	distinct := map[string]bool{}
	for _, r := range recs {
		distinct[r.Field(0).Str()] = true
	}
	if len(distinct) < 5 {
		t.Errorf("only %d distinct words", len(distinct))
	}
}

func TestSensors(t *testing.T) {
	recs := Sensors(SensorConfig{N: 1000, Wells: 8, Seed: 19})
	wells := map[int64]bool{}
	for i, r := range recs {
		if err := SensorSchema.Validate(r); err != nil {
			t.Fatalf("reading %d invalid: %v", i, err)
		}
		wells[r.Field(0).Int()] = true
	}
	if len(wells) != 8 {
		t.Errorf("got %d wells, want 8", len(wells))
	}
}

// canonicalSHA is the SHA-256 of the records' canonical binary encoding.
func canonicalSHA(t *testing.T, recs []data.Record) string {
	t.Helper()
	h := sha256.New()
	if _, err := data.WriteBinary(h, recs); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The column generators are the definition, the record forms derived from
// them; benchmarks/e2e computes its reference answers from the record
// forms, so neither may drift. The digests were recorded from Words and
// Sensors as they stood before the column forms existed (PR 21).
func TestGeneratorsPinned(t *testing.T) {
	cfg := SensorConfig{N: 1000, Wells: 32, Seed: 7}
	for _, tc := range []struct {
		name       string
		recs, cols []data.Record
		sha        string
	}{
		{"words", Words(1000, 11), WordColumns(1000, 11).ToRecords(),
			"bc85c4cb25555ba5712432405ed2b221d2aed3a984916e674871a669c97b5306"},
		{"sensors", Sensors(cfg), SensorColumns(cfg).ToRecords(),
			"c1f1defd018193def3e2f2af77b07461a5ad0f7f4417e7efecce1ea946330030"},
	} {
		if got := canonicalSHA(t, tc.recs); got != tc.sha {
			t.Errorf("%s: records digest %s, pinned %s", tc.name, got, tc.sha)
		}
		if got := canonicalSHA(t, tc.cols); got != tc.sha {
			t.Errorf("%s: columns digest %s, pinned %s", tc.name, got, tc.sha)
		}
	}
	if err := SensorSchema.Validate(Sensors(cfg)[0]); err != nil {
		t.Error(err)
	}
}
