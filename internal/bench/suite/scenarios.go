package suite

import (
	"fmt"
	"time"

	"rheem"
	"rheem/internal/apps/ml"
	"rheem/internal/bench"
	"rheem/internal/core/engine"
	"rheem/internal/core/metrics"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// Areas. One BENCH_<area>.json is emitted per area.
const (
	AreaCore     = "core"     // single-platform cores + multi-platform choice (E1/E5)
	AreaParallel = "parallel" // concurrent DAG scheduling (E8)
	AreaSharding = "sharding" // intra-atom shard fan-out (E11)
	AreaColumnar = "columnar" // hinted columnar chain vs its UDF twin (E13)
	// AreaService ("service", E12) is declared in service.go.
)

// Scale is the knob set a scenario sizes itself from: the tier picks
// real workload sizes, Quick shrinks the short tier further for tests.
// Sizes depend only on (Tier, Quick) — never on the host — so two runs
// at the same scale execute the identical workload.
type Scale struct {
	Tier  string
	Quick bool
}

// Reps returns the measured-repetition and warmup counts for the
// scale.
func (s Scale) Reps() (reps, warmup int) {
	switch {
	case s.Quick:
		return 2, 1
	case s.Tier == TierFull:
		return 5, 2
	default:
		return 3, 1
	}
}

// pick3 selects by scale: quick, short, full.
func (s Scale) pick3(quick, short, full int) int {
	switch {
	case s.Quick:
		return quick
	case s.Tier == TierFull:
		return full
	default:
		return short
	}
}

// Measure is what one scenario repetition reports.
type Measure struct {
	Wall    time.Duration
	Sim     time.Duration
	Records int64 // records produced to output channels
}

// Scenario is one cell of the benchmark matrix.
type Scenario struct {
	Name string
	Area string
	// NoisePct is this scenario's rep-to-rep spread budget in percent;
	// 0 inherits the run-wide Options.NoisePct. Scenarios whose wall
	// time is dominated by scheduler wakeups or host contention (the
	// sub-millisecond columnar chains, the multi-tenant service load)
	// carry elevated budgets so shared CI runners don't flag them on
	// every run.
	NoisePct float64
	// Run executes one repetition at the given scale, feeding its
	// telemetry (atom-latency spans for the p99 column) into hub.
	Run func(s Scale, hub *metrics.Hub) (Measure, error)
}

// Scenarios returns the fixed scenario matrix in persisted order. The
// set is independent of tier and host — the determinism contract — and
// covers single-platform cores (E1), multi-platform optimizer choice
// (E5), parallel DAG scheduling (E8), intra-atom sharding (E11), and
// multi-tenant service load (E12).
func Scenarios() []Scenario {
	colchain := &columnarChain{}
	return []Scenario{
		{Name: "svm-java", Area: AreaCore, Run: svmScenario(javaengine.ID)},
		{Name: "svm-spark", Area: AreaCore, Run: svmScenario(sparksim.ID)},
		{Name: "sensor-multiplatform", Area: AreaCore, Run: sensorScenario},
		{Name: "fanout-seq", Area: AreaParallel, Run: fanoutScenario(1)},
		{Name: "fanout-par4", Area: AreaParallel, Run: fanoutScenario(4)},
		{Name: "wide-unsharded", Area: AreaSharding, Run: wideScenario(1)},
		{Name: "wide-shard4", Area: AreaSharding, Run: wideScenario(4)},
		// The service cells run a whole admission/dispatch/drain cycle, so
		// their walls absorb queue-timing jitter beyond the flat budget.
		{Name: "serve-tenants1", Area: AreaService, NoisePct: 40, Run: serviceScenario(1)},
		{Name: "serve-tenants4", Area: AreaService, NoisePct: 40, Run: serviceScenario(4)},
		// The columnar chains finish in microseconds at the short tier;
		// one scheduler wakeup is tens of percent of a rep on a shared
		// runner.
		{Name: "colchain", Area: AreaColumnar, NoisePct: 60, Run: colchain.scenario(true)},
		{Name: "colchain-udf", Area: AreaColumnar, NoisePct: 60, Run: colchain.scenario(false)},
	}
}

// newWarmupHub and newMeasureHub both return a private hub; the split
// exists so runScenario reads as what it does — warmup telemetry is
// discarded, measured telemetry feeds the persisted p99.
func newWarmupHub() *metrics.Hub  { return metrics.NewHub() }
func newMeasureHub() *metrics.Hub { return metrics.NewHub() }

// newCtx builds a fresh context per repetition bound to the hub, so no
// platform state (breakers, stage accounting) leaks across reps while
// every span still lands in the scenario's histograms.
func newCtx(hub *metrics.Hub) (*rheem.Context, error) {
	return rheem.NewContext(rheem.Config{}, rheem.WithTelemetryHub(hub))
}

// svmScenario is the E1 core: SVM training pinned to one platform.
func svmScenario(platform engine.PlatformID) func(Scale, *metrics.Hub) (Measure, error) {
	return func(s Scale, hub *metrics.Hub) (Measure, error) {
		n := s.pick3(500, 2_000, 50_000)
		iters := s.pick3(3, 10, 100)
		const dim = 10
		pts := datagen.Points(datagen.PointsConfig{N: n, Dim: dim, Noise: 0.05, Seed: uint64(n)})
		ctx, err := newCtx(hub)
		if err != nil {
			return Measure{}, err
		}
		defer ctx.Close()
		tpl := ml.SVM(pts, ml.GradientConfig{Iterations: iters, Dim: dim})
		_, rep, err := tpl.Run(ctx, rheem.OnPlatform(platform))
		if err != nil {
			return Measure{}, err
		}
		return Measure{Wall: rep.Metrics.Wall, Sim: rep.Metrics.Sim, Records: rep.Metrics.OutRecords}, nil
	}
}

// sensorScenario is the E5 core: the §1 sensor pipeline with free
// optimizer choice — the multi-platform case.
func sensorScenario(s Scale, hub *metrics.Hub) (Measure, error) {
	n := s.pick3(2_000, 10_000, 200_000)
	readings := datagen.Sensors(datagen.SensorConfig{N: n, Wells: 32, Seed: 7})
	ctx, err := newCtx(hub)
	if err != nil {
		return Measure{}, err
	}
	defer ctx.Close()
	wells, rep, err := bench.SensorPipeline(ctx, readings)
	if err != nil {
		return Measure{}, err
	}
	if len(wells) != 32 {
		return Measure{}, fmt.Errorf("sensor pipeline produced %d wells, want 32", len(wells))
	}
	return Measure{Wall: rep.Metrics.Wall, Sim: rep.Metrics.Sim, Records: rep.Metrics.OutRecords}, nil
}

// fanoutScenario is the E8 core: the wide multi-platform diamond at a
// fixed scheduler parallelism.
func fanoutScenario(par int) func(Scale, *metrics.Hub) (Measure, error) {
	return func(s Scale, hub *metrics.Hub) (Measure, error) {
		branches := 8
		recs := s.pick3(5, 20, 100)
		delay := time.Duration(s.pick3(200, 500, 2000)) * time.Microsecond
		ctx, err := newCtx(hub)
		if err != nil {
			return Measure{}, err
		}
		defer ctx.Close()
		res, err := bench.RunFanOutTraced(ctx.Registry(), hub, branches, recs, delay, par)
		if err != nil {
			return Measure{}, err
		}
		return Measure{Wall: res.Metrics.Wall, Sim: res.Metrics.Sim, Records: res.Metrics.OutRecords}, nil
	}
}

// columnarChain is the E13 core: the filter → project → aggregate
// hot-path chain, hinted (colchain) or built from the UDFs the same
// spec generates (colchain-udf). Both cells run on the identical
// platform assignment and engine; the gap between them is the
// row-at-a-time tax the columnar kernels remove.
//
// The dataset is the cells' input, not their work: the first repetition
// to need it — a warmup at every scale — builds it and both cells reuse
// it, so the generator's one allocation per record stays out of the
// window runScenario brackets with ReadMemStats.
type columnarChain struct {
	recs []data.Record
}

func (c *columnarChain) scenario(hinted bool) func(Scale, *metrics.Hub) (Measure, error) {
	return func(s Scale, hub *metrics.Hub) (Measure, error) {
		if n := s.pick3(5_000, 150_000, 1_000_000); len(c.recs) != n {
			c.recs = bench.ColumnarRecords(n)
		}
		ctx, err := newCtx(hub)
		if err != nil {
			return Measure{}, err
		}
		defer ctx.Close()
		res, err := bench.RunColumnarTraced(ctx, hub, c.recs, hinted)
		if err != nil {
			return Measure{}, err
		}
		return Measure{Wall: res.Metrics.Wall, Sim: res.Metrics.Sim, Records: res.Metrics.OutRecords}, nil
	}
}

// wideScenario is the E11 core: the single wide Map+Filter atom at a
// fixed shard fan-out.
func wideScenario(shards int) func(Scale, *metrics.Hub) (Measure, error) {
	return func(s Scale, hub *metrics.Hub) (Measure, error) {
		recs := s.pick3(40, 150, 600)
		delay := time.Duration(s.pick3(50, 100, 150)) * time.Microsecond
		ctx, err := newCtx(hub)
		if err != nil {
			return Measure{}, err
		}
		defer ctx.Close()
		res, err := bench.RunWideTraced(ctx.Registry(), hub, recs, delay, shards)
		if err != nil {
			return Measure{}, err
		}
		if got, want := len(res.Records), bench.WideRecords(recs); got != want {
			return Measure{}, fmt.Errorf("wide chain produced %d records, want %d", got, want)
		}
		return Measure{Wall: res.Metrics.Wall, Sim: res.Metrics.Sim, Records: res.Metrics.OutRecords}, nil
	}
}
