// Package datagen generates the seeded synthetic workloads the
// experiment harness sweeps over. Each generator is the substitute for a
// dataset the paper used but that is not available offline (see
// DESIGN.md §3):
//
//   - Points replaces the LIBSVM datasets of Figure 2;
//   - Tax replaces the BigDansing dirty tax dataset of Figure 3;
//   - Graph replaces real-world graphs for the graph application;
//   - ZipfInts provides skewed grouping keys for partitioner and
//     shuffle tests.
//
// All generators are deterministic in their seed, so experiments and
// property tests are reproducible.
package datagen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rheem/internal/core/batch"
	"rheem/internal/data"
)

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// PointsSchema is the schema of LIBSVM-like records: a ±1 label and a
// dense feature vector.
var PointsSchema = data.MustSchema(
	data.Field{Name: "label", Type: data.KindFloat},
	data.Field{Name: "features", Type: data.KindVector},
)

// PointsConfig parameterises the synthetic classification dataset.
type PointsConfig struct {
	N     int     // number of points
	Dim   int     // feature dimensionality
	Noise float64 // probability of flipping a label (label noise)
	Seed  uint64
}

// Points generates n points from two linearly separable Gaussian blobs
// with optional label noise, the standard synthetic stand-in for the
// LIBSVM binary classification datasets (a9a, w8a, ...) used in the
// paper's Figure 2. The separating hyperplane is w = (1, 1, ..., 1)/√d
// with margin 1, so SVM training on the clean data converges quickly
// and the per-iteration cost — which is all Figure 2 measures — is
// realistic.
func Points(cfg PointsConfig) []data.Record {
	if cfg.Dim <= 0 {
		cfg.Dim = 10
	}
	r := newRand(cfg.Seed)
	recs := make([]data.Record, cfg.N)
	inv := 1.0 / math.Sqrt(float64(cfg.Dim))
	for i := 0; i < cfg.N; i++ {
		label := 1.0
		if i%2 == 1 {
			label = -1.0
		}
		vec := make([]float64, cfg.Dim)
		for j := range vec {
			// Centre each blob at ±2/√d per dimension with unit noise.
			vec[j] = label*2*inv + r.NormFloat64()*0.5
		}
		if cfg.Noise > 0 && r.Float64() < cfg.Noise {
			label = -label
		}
		recs[i] = data.NewRecord(data.Float(label), data.Vec(vec))
	}
	return recs
}

// TaxSchema is the schema of the BigDansing-style tax dataset. The
// attribute set follows the BigDansing/NADEEF tax benchmark: personal
// identity plus address (zip determines city and state) and income
// (salary determines tax rate monotonically).
var TaxSchema = data.MustSchema(
	data.Field{Name: "id", Type: data.KindInt},
	data.Field{Name: "fname", Type: data.KindString},
	data.Field{Name: "lname", Type: data.KindString},
	data.Field{Name: "gender", Type: data.KindString},
	data.Field{Name: "zip", Type: data.KindString},
	data.Field{Name: "city", Type: data.KindString},
	data.Field{Name: "state", Type: data.KindString},
	data.Field{Name: "salary", Type: data.KindFloat},
	data.Field{Name: "rate", Type: data.KindFloat},
)

// Tax field indexes, exported so rules and tests can reference fields
// without magic numbers.
const (
	TaxID = iota
	TaxFName
	TaxLName
	TaxGender
	TaxZip
	TaxCity
	TaxState
	TaxSalary
	TaxRate
)

// TaxConfig parameterises the dirty tax dataset.
type TaxConfig struct {
	N         int     // number of records
	Zips      int     // number of distinct zip codes (blocking keys)
	ErrorRate float64 // fraction of records with an injected error
	Seed      uint64
}

// Tax generates a dirty tax dataset. Clean data satisfies:
//
//	FD  zip → city        (each zip maps to one city)
//	FD  zip → state       (each zip maps to one state)
//	DC  ¬(s1.salary > s2.salary ∧ s1.rate < s2.rate)   (rate is
//	    monotone in salary — the inequality rule IEJoin accelerates)
//
// Errors are injected at the configured rate, split between FD
// violations (a record gets the wrong city for its zip) and DC
// violations (a high-salary record gets an artificially low rate).
func Tax(cfg TaxConfig) []data.Record {
	if cfg.Zips <= 0 {
		cfg.Zips = 100
	}
	r := newRand(cfg.Seed)
	firstNames := []string{"james", "mary", "robert", "patricia", "john", "jennifer", "michael", "linda"}
	lastNames := []string{"smith", "johnson", "williams", "brown", "jones", "garcia", "miller", "davis"}
	states := []string{"NY", "CA", "TX", "FL", "WA", "IL", "MA", "GA"}

	recs := make([]data.Record, cfg.N)
	for i := 0; i < cfg.N; i++ {
		zipIdx := r.IntN(cfg.Zips)
		zip := fmt.Sprintf("%05d", 10000+zipIdx)
		city := fmt.Sprintf("city_%03d", zipIdx)
		state := states[zipIdx%len(states)]
		salary := 20000 + r.Float64()*180000
		rate := cleanRate(salary)
		gender := "M"
		if r.IntN(2) == 0 {
			gender = "F"
		}

		if r.Float64() < cfg.ErrorRate {
			if r.IntN(2) == 0 {
				// FD violation: wrong city for this zip.
				city = fmt.Sprintf("city_%03d", (zipIdx+1+r.IntN(cfg.Zips-1))%cfg.Zips)
			} else {
				// DC violation: high earner with a rate below what
				// lower salaries get.
				salary = 150000 + r.Float64()*50000
				rate = 1 + r.Float64()*2
			}
		}

		recs[i] = data.NewRecord(
			data.Int(int64(i)),
			data.Str(firstNames[r.IntN(len(firstNames))]),
			data.Str(lastNames[r.IntN(len(lastNames))]),
			data.Str(gender),
			data.Str(zip),
			data.Str(city),
			data.Str(state),
			data.Float(salary),
			data.Float(rate),
		)
	}
	return recs
}

// cleanRate is the monotone salary→rate function clean records obey.
func cleanRate(salary float64) float64 {
	return 5 + salary/200000*30 // 5%..35%, strictly increasing
}

// EdgeSchema is the schema of graph edges.
var EdgeSchema = data.MustSchema(
	data.Field{Name: "src", Type: data.KindInt},
	data.Field{Name: "dst", Type: data.KindInt},
)

// GraphConfig parameterises the synthetic graph.
type GraphConfig struct {
	Nodes int
	Edges int
	Seed  uint64
}

// Graph generates a directed graph with preferential attachment-style
// skew: destination picks are biased toward low node ids, yielding the
// heavy-tailed in-degree distribution PageRank cares about. Self-loops
// are skipped (regenerated), duplicate edges are allowed as in real
// edge lists.
func Graph(cfg GraphConfig) []data.Record {
	r := newRand(cfg.Seed)
	recs := make([]data.Record, 0, cfg.Edges)
	for len(recs) < cfg.Edges {
		src := int64(r.IntN(cfg.Nodes))
		// Square a uniform to bias toward 0 (popular nodes).
		u := r.Float64()
		dst := int64(u * u * float64(cfg.Nodes))
		if dst >= int64(cfg.Nodes) {
			dst = int64(cfg.Nodes - 1)
		}
		if src == dst {
			continue
		}
		recs = append(recs, data.NewRecord(data.Int(src), data.Int(dst)))
	}
	return recs
}

// ZipfInts generates n integer keys in [0, domain) with a Zipfian
// (s≈1.1) distribution, used to stress skewed grouping and shuffles.
func ZipfInts(n, domain int, seed uint64) []data.Record {
	r := newRand(seed)
	// math/rand/v2 has no Zipf; implement inverse-CDF sampling over a
	// precomputed harmonic table. Domain sizes in tests are modest.
	if domain <= 0 {
		domain = 1
	}
	cdf := make([]float64, domain)
	var sum float64
	for i := 0; i < domain; i++ {
		sum += 1 / math.Pow(float64(i+1), 1.1)
		cdf[i] = sum
	}
	recs := make([]data.Record, n)
	for i := 0; i < n; i++ {
		target := r.Float64() * sum
		lo, hi := 0, domain-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		recs[i] = data.NewRecord(data.Int(int64(lo)))
	}
	return recs
}

// WordColumns generates n words drawn from a small vocabulary as one
// string column — the word-count input, and the one definition of it.
func WordColumns(n int, seed uint64) *batch.Batch {
	vocab := []string{
		"road", "to", "freedom", "in", "big", "data", "analytics",
		"rheem", "platform", "independence", "operator", "plan",
	}
	r := newRand(seed)
	words := make([]string, n)
	for i := range words {
		words[i] = vocab[r.IntN(len(vocab))]
	}
	return columns(n, batch.Column{Kind: batch.ColString, Strings: words})
}

// Words is WordColumns as records, one word each.
func Words(n int, seed uint64) []data.Record { return WordColumns(n, seed).ToRecords() }

// columns assembles a generator's batch; the columns are n rows long by
// construction.
func columns(n int, cols ...batch.Column) *batch.Batch {
	b, err := batch.New(n, cols)
	if err != nil {
		panic(err)
	}
	return b
}

// SensorSchema is the schema of the oil-&-gas-style sensor readings used
// by the multi-platform example (§1 of the paper motivates RHEEM with
// exactly this pipeline).
var SensorSchema = data.MustSchema(
	data.Field{Name: "well", Type: data.KindInt},
	data.Field{Name: "sensor", Type: data.KindInt},
	data.Field{Name: "pressure", Type: data.KindFloat},
	data.Field{Name: "temperature", Type: data.KindFloat},
	data.Field{Name: "flow", Type: data.KindFloat},
)

// SensorConfig parameterises sensor readings.
type SensorConfig struct {
	N     int
	Wells int
	Seed  uint64
}

// SensorColumns generates per-well readings, a column per SensorSchema
// field, whose distribution differs by well, so that aggregating then
// clustering finds structure. It is the one definition of the generator:
// a reading's five values are drawn together, in field order.
func SensorColumns(cfg SensorConfig) *batch.Batch {
	if cfg.Wells <= 0 {
		cfg.Wells = 16
	}
	r := newRand(cfg.Seed)
	wells, sensors := make([]int64, cfg.N), make([]int64, cfg.N)
	pressure, temperature, flow := make([]float64, cfg.N), make([]float64, cfg.N), make([]float64, cfg.N)
	for i := range wells {
		well := r.IntN(cfg.Wells)
		base := float64(well % 4)
		wells[i] = int64(well)
		sensors[i] = int64(r.IntN(64))
		pressure[i] = 100 + base*50 + r.NormFloat64()*5
		temperature[i] = 60 + base*10 + r.NormFloat64()*2
		flow[i] = 10 + base*3 + r.NormFloat64()
	}
	return columns(cfg.N,
		batch.Column{Kind: batch.ColInt64, Int64s: wells},
		batch.Column{Kind: batch.ColInt64, Int64s: sensors},
		batch.Column{Kind: batch.ColFloat64, Float64s: pressure},
		batch.Column{Kind: batch.ColFloat64, Float64s: temperature},
		batch.Column{Kind: batch.ColFloat64, Float64s: flow},
	)
}

// Sensors is SensorColumns as records.
func Sensors(cfg SensorConfig) []data.Record { return SensorColumns(cfg).ToRecords() }
