// Job specifications. The wire format cannot carry Go UDFs, so a
// submitted job names either a RheemQL query over the server's shared
// catalog or a parametric built-in workload whose plan the service
// constructs deterministically from the spec — deterministic enough
// that the chaos suite can recompute every job's expected output
// offline and demand byte identity from whatever the server returns.
// The built-ins are written on the columnar forms (plan/columnar.go): typed
// column windows on javaengine, the row UDFs derived from them elsewhere.

package service

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"rheem/internal/apps/rheemql"
	"rheem/internal/core/batch"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

// Spec kinds.
const (
	KindSQL      = "sql"
	KindWorkload = "workload"
)

// Built-in workload names.
const (
	WorkloadWordcount = "wordcount"
	WorkloadSensor    = "sensor"
	WorkloadFanout    = "fanout"
)

// The largest workload a request may ask for. A built-in's input is
// generated as columns and kept in the server's memory — 40 bytes a sensor
// reading (five 8-byte values), 16 a word, 8 a fanout int — and the inputs
// kept for reuse (builtinInputs) hold at most MaxWorkloadN rows together:
// 40 MiB at most.
const MaxWorkloadN, MaxBranches, MaxWells = 1 << 20, 64, 1 << 16

// Spec describes what a job computes.
type Spec struct {
	// Kind is "sql" (Query over the server catalog) or "workload"
	// (a parametric built-in).
	Kind string `json:"kind"`
	// Query is the RheemQL text for Kind "sql".
	Query string `json:"query,omitempty"`
	// Workload names the built-in for Kind "workload": "wordcount",
	// "sensor" or "fanout".
	Workload string `json:"workload,omitempty"`
	// N sizes the workload's generated input (records). 0 picks a
	// workload-specific default.
	N int `json:"n,omitempty"`
	// Seed makes the generated input reproducible; the same (workload,
	// n, seed, branches, wells) spec always computes the same output.
	Seed uint64 `json:"seed,omitempty"`
	// Branches is the fanout workload's branch count (default 4).
	Branches int `json:"branches,omitempty"`
	// Wells is the sensor workload's group count (default 32).
	Wells int `json:"wells,omitempty"`
}

// maxTenantName bounds a tenant name: it is a label value on every
// service_* series of its tenant.
const maxTenantName = 64

// Request is the job-submission payload.
type Request struct {
	// Tenant is the submitting tenant's identity: at most 64 bytes of
	// [A-Za-z0-9._-]; "" maps to "default".
	Tenant string `json:"tenant,omitempty"`
	// Name labels the job in statuses and /runs; "" derives one from
	// the spec.
	Name string `json:"name,omitempty"`
	Spec Spec   `json:"spec"`

	// DeadlineMS bounds the whole job (queue wait excluded) in
	// milliseconds; 0 uses the service default, and values above the
	// service maximum are clamped to it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// AtomTimeoutMS bounds each execution attempt of a single task
	// atom; 0 uses the service default.
	AtomTimeoutMS int64 `json:"atom_timeout_ms,omitempty"`
	// Platform pins the job to one platform instead of letting the
	// optimizer choose.
	Platform string `json:"platform,omitempty"`
}

func (r *Request) normalize() {
	if r.Tenant == "" {
		r.Tenant = "default"
	}
	if r.Name == "" {
		switch r.Spec.Kind {
		case KindSQL:
			r.Name = "sql"
		default:
			r.Name = r.Spec.Workload
		}
	}
}

func (r *Request) deadline(def, max time.Duration) time.Duration {
	d := time.Duration(r.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// Validate rejects malformed requests before they cost anything.
func (r *Request) Validate() error {
	if !validTenant(r.Tenant) {
		return fmt.Errorf("service: tenant name must be at most %d bytes of [A-Za-z0-9._-]", maxTenantName)
	}
	if r.DeadlineMS < 0 || r.AtomTimeoutMS < 0 {
		return fmt.Errorf("service: negative deadline")
	}
	if s := r.Spec; s.N < 0 || s.Branches < 0 || s.Wells < 0 || s.N > MaxWorkloadN || s.Branches > MaxBranches || s.Wells > MaxWells {
		return fmt.Errorf("service: workload negative or too large (n ≤ %d, branches ≤ %d, wells ≤ %d)", MaxWorkloadN, MaxBranches, MaxWells)
	}
	switch r.Spec.Kind {
	case KindSQL:
		if r.Spec.Query == "" {
			return fmt.Errorf("service: sql spec needs a query")
		}
	case KindWorkload:
		switch r.Spec.Workload {
		case WorkloadWordcount, WorkloadSensor, WorkloadFanout:
		default:
			return fmt.Errorf("service: unknown workload %q", r.Spec.Workload)
		}
	default:
		return fmt.Errorf("service: unknown spec kind %q (want %q or %q)", r.Spec.Kind, KindSQL, KindWorkload)
	}
	return nil
}

// validTenant reports whether name fits maxTenantName and uses only
// [A-Za-z0-9._-].
func validTenant(name string) bool {
	if len(name) > maxTenantName {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// BuildPlan lowers the spec to a logical plan named name, compiling
// SQL against cat. Building is deterministic: the same spec always
// yields a plan computing the same output.
func (s *Spec) BuildPlan(name string, cat *rheemql.Catalog) (*plan.Plan, error) {
	switch s.Kind {
	case KindSQL:
		q, err := rheemql.Parse(s.Query)
		if err != nil {
			return nil, err
		}
		c, err := rheemql.Compile(q, cat)
		if err != nil {
			return nil, err
		}
		return c.Plan, nil
	case KindWorkload:
		switch s.Workload {
		case WorkloadWordcount:
			return wordcountPlan(name, builtinInputs.get(inputKey{WorkloadWordcount, s.sized(2000), 0, s.Seed}))
		case WorkloadSensor:
			return sensorPlan(name, builtinInputs.get(inputKey{WorkloadSensor, s.sized(2000), s.wells(), s.Seed}))
		case WorkloadFanout:
			return fanoutPlan(name, builtinInputs.get(inputKey{WorkloadFanout, s.sized(200), 0, s.Seed}), s.branches())
		}
	}
	return nil, fmt.Errorf("service: cannot build plan for spec kind %q", s.Kind)
}

// builtinInputs is the built-ins' generated inputs, one per (workload, n,
// wells, seed), shared read-only by every plan built for it while it is
// kept, as the catalog's tables are shared by every query.
var builtinInputs inputMemo

// inputKey is all a built-in's input depends on; wells is 0 for the
// workloads that have none.
type inputKey struct {
	workload string
	n, wells int
	seed     uint64
}

// generate makes the input of k as columns.
func (k inputKey) generate() *batch.Batch {
	switch k.workload {
	case WorkloadWordcount:
		return datagen.WordColumns(k.n, k.seed)
	case WorkloadSensor:
		return datagen.SensorColumns(datagen.SensorConfig{N: k.n, Wells: k.wells, Seed: k.seed})
	}
	ints := make([]int64, k.n)
	for i := range ints {
		ints[i] = int64(i) + int64(k.seed)
	}
	cols, err := batch.New(k.n, []batch.Column{{Kind: batch.ColInt64, Int64s: ints}})
	if err != nil {
		panic(err) // one column of n rows by construction
	}
	return cols
}

// inputMemo keeps generated inputs, at most MaxWorkloadN rows of them
// together, and evicts the least recently used first. Its lock covers the
// bookkeeping alone: an input is generated outside it, once, by the first
// caller of its key, and every other caller of that key waits for it.
type inputMemo struct {
	mu    sync.Mutex
	rows  int
	byKey map[inputKey]*list.Element // values are *memoInput
	lru   list.List                  // most recently used at the front
}

type memoInput struct {
	key  inputKey
	once sync.Once
	cols *batch.Batch
}

// get returns the input of k, generating it on first use.
func (m *inputMemo) get(k inputKey) *batch.Batch {
	if k.n > MaxWorkloadN { // past the door's bound: the plan alone keeps it
		return k.generate()
	}
	m.mu.Lock()
	el := m.byKey[k]
	if el != nil {
		m.lru.MoveToFront(el)
	} else {
		for m.rows+k.n > MaxWorkloadN {
			old := m.lru.Remove(m.lru.Back()).(*memoInput)
			delete(m.byKey, old.key)
			m.rows -= old.key.n
		}
		if m.byKey == nil {
			m.byKey = map[inputKey]*list.Element{}
		}
		el = m.lru.PushFront(&memoInput{key: k})
		m.byKey[k] = el
		m.rows += k.n
	}
	in := el.Value.(*memoInput)
	m.mu.Unlock()
	in.once.Do(func() { in.cols = k.generate() })
	return in.cols
}

func (s *Spec) sized(def int) int {
	if s.N > 0 {
		return s.N
	}
	return def
}

func (s *Spec) branches() int {
	if s.Branches > 0 {
		return s.Branches
	}
	return 4
}

func (s *Spec) wells() int {
	if s.Wells > 0 {
		return s.Wells
	}
	return 32
}

// wordcountPlan is the classic, as SELECT word, COUNT(*) … GROUP BY word
// ORDER BY word.
func wordcountPlan(name string, words *batch.Batch) (*plan.Plan, error) {
	b := plan.NewBuilder(name)
	src := b.SourceColumns("words", words, nil)
	counts := b.GroupAggregate(src, []int{0}, plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupCountAll})
	b.Collect(b.Sort(counts, plan.FieldKey(0), false))
	return b.Build()
}

// sensorPlan is the §1 pipeline shape: normalize (a column map: pressure in
// kPa, clamped at 0) → per-well sums and count → a vector of means → sort.
func sensorPlan(name string, readings *batch.Batch) (*plan.Plan, error) {
	b := plan.NewBuilder(name)
	src := b.SourceColumns("readings", readings, nil)
	norm := b.MapColumns(src, plan.ColumnMap{
		In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}, {Field: 2, Kind: batch.ColFloat64}, {Field: 3, Kind: batch.ColFloat64}, {Field: 4, Kind: batch.ColFloat64}},
		Out: []batch.ColKind{batch.ColInt64, batch.ColFloat64, batch.ColFloat64, batch.ColFloat64},
		Fn: func(_ int, in, out []batch.Column) error {
			copy(out[0].Int64s, in[0].Int64s)
			for i, psi := range in[1].Float64s {
				out[1].Float64s[i] = max(psi*6.894, 0)
			}
			copy(out[2].Float64s, in[2].Float64s)
			copy(out[3].Float64s, in[3].Float64s)
			return nil
		},
	})
	sum := func(f int) plan.GroupCol { return plan.GroupCol{Fn: plan.GroupSum, Field: f} }
	agg := b.GroupAggregate(norm, []int{0}, plan.GroupCol{Fn: plan.GroupKey}, sum(1), sum(2), sum(3), plan.GroupCol{Fn: plan.GroupCountAll})
	feats := b.Map(agg, func(r data.Record) (data.Record, error) {
		cnt := float64(r.Field(4).Int())
		return data.NewRecord(r.Field(0), data.Vec([]float64{r.Field(1).Float() / cnt, r.Field(2).Float() / cnt, r.Field(3).Float() / cnt})), nil
	})
	b.Collect(b.Sort(feats, plan.FieldKey(0), false))
	return b.Build()
}

// fanoutPlan is a fan-out diamond: one source feeding `branches`
// independent legs (column maps, each burning a deterministic amount of
// CPU per value), unioned and summed to a checksum — wide enough to
// exercise the shared scheduler pool.
func fanoutPlan(name string, ints *batch.Batch, branches int) (*plan.Plan, error) {
	b := plan.NewBuilder(name)
	src := b.SourceColumns("ints", ints, nil)
	legs := make([]*plan.Operator, branches)
	for i := range legs {
		leg := uint64(i + 1)
		legs[i] = b.MapColumns(src, plan.ColumnMap{
			In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}},
			Out: []batch.ColKind{batch.ColInt64},
			Fn: func(_ int, in, out []batch.Column) error {
				for k, v := range in[0].Int64s {
					x := uint64(v) ^ leg
					// A deterministic mix loop: CPU work without sleeps.
					for j := 0; j < 64; j++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
					}
					out[0].Int64s[k] = int64(x>>1) % 1_000_003
				}
				return nil
			},
		})
	}
	out := legs[0]
	for _, l := range legs[1:] {
		out = b.Union(out, l)
	}
	b.Collect(b.AggregateCols(out, plan.AggSum))
	return b.Build()
}

// DefaultCatalog is the server's shared queryable catalog: generated
// datasets with fixed seeds, registered once at startup. Scale shrinks
// the tables for tests and quick demos (0 = full size).
func DefaultCatalog(scale int) (*rheemql.Catalog, error) {
	if scale <= 0 {
		scale = 20_000
	}
	cat := rheemql.NewCatalog()
	sensorSchema, err := data.NewSchema(
		data.Field{Name: "well", Type: data.KindInt},
		data.Field{Name: "hour", Type: data.KindInt},
		data.Field{Name: "pressure", Type: data.KindFloat},
		data.Field{Name: "temperature", Type: data.KindFloat},
		data.Field{Name: "flow", Type: data.KindFloat},
	)
	if err != nil {
		return nil, err
	}
	if err := cat.Register("sensors", sensorSchema,
		datagen.Sensors(datagen.SensorConfig{N: scale, Wells: 32, Seed: 7})); err != nil {
		return nil, err
	}
	wordSchema, err := data.NewSchema(data.Field{Name: "word", Type: data.KindString})
	if err != nil {
		return nil, err
	}
	if err := cat.Register("words", wordSchema, datagen.Words(scale, 11)); err != nil {
		return nil, err
	}
	return cat, nil
}
