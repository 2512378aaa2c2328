package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rheem"
	"rheem/internal/apps/cleaning"
	"rheem/internal/apps/ml"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

func init() {
	register("fig2", fig2)
	register("fig3left", fig3left)
	register("fig3right", fig3right)
	register("iejoin", iejoin)
	register("multiplatform", multiplatform)
	register("optimizer", optimizerChoice)
}

// newCtx builds the experiment context with the calibrated cluster:
// 4 workers × 2 slots, 50 ms job overhead — the knobs behind the
// Figure 2 crossover (see EXPERIMENTS.md "Calibration"). When the
// config carries a telemetry hub (rheem-bench -metrics), the context
// joins it so one monitoring server sees every experiment.
func newCtx(cfg Config) (*rheem.Context, error) {
	if cfg.Hub != nil {
		return rheem.NewContext(rheem.Config{}, rheem.WithTelemetryHub(cfg.Hub))
	}
	return rheem.NewContext(rheem.Config{})
}

// pick selects the reported clock.
func pick(cfg Config, m engine.Metrics) time.Duration {
	if cfg.WallClock {
		return m.Wall
	}
	return m.Sim
}

// platformsUsed summarises which platforms an execution plan touched.
func platformsUsed(rep *rheem.Report) string {
	if rep == nil || rep.Plan == nil {
		return "?"
	}
	ids := map[string]bool{}
	add := func(ep *optimizer.ExecutionPlan) {
		for _, op := range ep.Physical.Ops {
			ids[string(ep.Assignment[op.ID])] = true
		}
	}
	add(rep.Plan)
	for _, body := range rep.Plan.LoopBodies {
		add(body)
	}
	out := make([]string, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return strings.Join(out, "+")
}

// --- E1 / Figure 2: SVM on Spark and Java -------------------------------

// fig2Dim is the feature dimensionality of every Figure 2 dataset.
const fig2Dim = 10

// fig2Arm trains the SVM on pts pinned to one platform: one arm of
// Figure 2.
func fig2Arm(ctx *rheem.Context, pts []data.Record, iters int, platform engine.PlatformID) (*rheem.Report, error) {
	_, rep, err := ml.SVM(pts, ml.GradientConfig{Iterations: iters, Dim: fig2Dim}).Run(ctx, rheem.OnPlatform(platform))
	return rep, err
}

// fig2Points is a Figure 2 dataset: n labelled points, 5 % noise.
func fig2Points(n int, seed uint64) []data.Record {
	return datagen.Points(datagen.PointsConfig{N: n, Dim: fig2Dim, Noise: 0.05, Seed: seed})
}

func fig2(cfg Config) ([]*Table, error) {
	ctx, err := newCtx(cfg)
	if err != nil {
		return nil, err
	}
	sizes := []int{1_000, 10_000, 50_000, 100_000, 200_000, 500_000}
	iters := 100
	if cfg.Quick {
		sizes = []int{500, 2_000, 10_000}
		iters = 10
	}
	clock := "simulated"
	if cfg.WallClock {
		clock = "wall"
	}
	t1 := &Table{
		Title:   fmt.Sprintf("Figure 2 — SVM (%d iterations, d=%d), Java vs Spark [%s time]", iters, fig2Dim, clock),
		Note:    "Paper shape: plain Java wins by ~an order of magnitude on small inputs; Spark pays off only for big inputs.",
		Columns: []string{"points", "java", "spark", "winner", "java/spark"},
	}
	run := func(pts []data.Record, iters int, platform engine.PlatformID) (time.Duration, error) {
		rep, err := fig2Arm(ctx, pts, iters, platform)
		if err != nil {
			return 0, err
		}
		return pick(cfg, rep.Metrics), nil
	}
	for _, n := range sizes {
		cfg.logf("fig2: n=%d", n)
		pts := fig2Points(n, uint64(n))
		tj, err := run(pts, iters, javaengine.ID)
		if err != nil {
			return nil, err
		}
		ts, err := run(pts, iters, sparksim.ID)
		if err != nil {
			return nil, err
		}
		winner := "java"
		if ts < tj {
			winner = "spark"
		}
		t1.AddRow(Count(n), Dur(tj), Dur(ts), winner, Speedup(ts, tj))
	}

	// Second series: the gap grows with the number of iterations
	// (paper: "this performance gap gets bigger with the number of
	// iterations").
	nFixed := 50_000
	iterSweep := []int{10, 50, 100, 200}
	if cfg.Quick {
		nFixed = 2_000
		iterSweep = []int{2, 5, 10}
	}
	t2 := &Table{
		Title:   fmt.Sprintf("Figure 2 (inset) — iteration sweep at n=%s", Count(nFixed)),
		Columns: []string{"iterations", "java", "spark", "spark-java gap"},
	}
	pts := fig2Points(nFixed, 99)
	for _, it := range iterSweep {
		cfg.logf("fig2 inset: iters=%d", it)
		tj, err := run(pts, it, javaengine.ID)
		if err != nil {
			return nil, err
		}
		ts, err := run(pts, it, sparksim.ID)
		if err != nil {
			return nil, err
		}
		t2.AddRow(fmt.Sprint(it), Dur(tj), Dur(ts), Dur(ts-tj))
	}
	return []*Table{t1, t2}, nil
}

// --- E2, E3 and E4: Figure 3 and IEJoin's datasets and arms -------------

func zipCityFD() cleaning.FD {
	return cleaning.FD{RuleName: "zip->city", ID: datagen.TaxID,
		LHS: []int{datagen.TaxZip}, RHS: []int{datagen.TaxCity}}
}

func salaryRateDC() cleaning.DenialConstraint {
	return cleaning.DenialConstraint{RuleName: "salary-rate", ID: datagen.TaxID,
		Preds: []cleaning.Pred{
			{LeftField: datagen.TaxSalary, Op: plan.Greater, RightField: datagen.TaxSalary},
			{LeftField: datagen.TaxRate, Op: plan.Less, RightField: datagen.TaxRate},
		},
		FixField: datagen.TaxRate,
	}
}

// fig3Tax is the Figure 3 dataset: n tax records, 1 % of them dirty,
// one zip code per 50 rows.
func fig3Tax(n int) []data.Record {
	return datagen.Tax(datagen.TaxConfig{N: n, Zips: n / 50, ErrorRate: 0.01, Seed: uint64(n)})
}

// dcTax is E4's dataset: n tax records over 50 zip codes, errRate dirty.
func dcTax(n int, errRate float64) []data.Record {
	return datagen.Tax(datagen.TaxConfig{N: n, Zips: 50, ErrorRate: errRate, Seed: uint64(n)})
}

// arm is one detection approach of Figure 3 or E4 over a dataset.
type arm func(recs []data.Record) ([]cleaning.Violation, *rheem.Report, error)

// arms are Figure 3's and E4's detection approaches on one experiment
// context, each pinned where the paper ran it. The experiments tabulate
// them and TestFigure3Shape checks them.
type arms struct {
	// Over the zip → city FD: BigDansing's Scope/Block/Iterate/Detect
	// operators, one monolithic Detect UDF, a SQL-style self-join, and
	// the NADEEF-style pairwise UDF on a single node.
	pipeline, udf, selfJoin, nadeef arm
	// Over the salary/rate DC: through the IEJoin operator, and, with
	// the rule's declarative conditions hidden, a nested loop.
	ieJoin, nestedLoop arm
}

func newArms(cfg Config) (*arms, error) {
	ctx, err := newCtx(cfg)
	if err != nil {
		return nil, err
	}
	fd, err := cleaning.NewDetector(ctx, zipCityFD())
	if err != nil {
		return nil, err
	}
	ie, err := cleaning.NewDetector(ctx, salaryRateDC())
	if err != nil {
		return nil, err
	}
	nl, err := cleaning.NewDetector(ctx, cleaning.StripConditions(salaryRateDC()))
	if err != nil {
		return nil, err
	}
	spark, java := rheem.OnPlatform(sparksim.ID), rheem.OnPlatform(javaengine.ID)
	return &arms{
		pipeline: func(recs []data.Record) ([]cleaning.Violation, *rheem.Report, error) { return fd.Detect(recs, spark) },
		udf: func(recs []data.Record) ([]cleaning.Violation, *rheem.Report, error) {
			return fd.DetectMonolithic(zipCityFD(), recs, spark)
		},
		selfJoin: func(recs []data.Record) ([]cleaning.Violation, *rheem.Report, error) {
			return fd.DetectSelfJoin(zipCityFD(), recs, spark)
		},
		nadeef: func(recs []data.Record) ([]cleaning.Violation, *rheem.Report, error) {
			return fd.DetectMonolithic(zipCityFD(), recs, java)
		},
		ieJoin:     func(recs []data.Record) ([]cleaning.Violation, *rheem.Report, error) { return ie.Detect(recs, spark) },
		nestedLoop: func(recs []data.Record) ([]cleaning.Violation, *rheem.Report, error) { return nl.Detect(recs, spark) },
	}, nil
}

// timeArm runs a over recs: its violation count and reported time.
func timeArm(cfg Config, a arm, recs []data.Record) (int, time.Duration, error) {
	vs, rep, err := a(recs)
	if err != nil {
		return 0, 0, err
	}
	return len(vs), pick(cfg, rep.Metrics), nil
}

// capped is a quadratic baseline: measured up to upTo rows, and past
// that extrapolated from the last size it measured.
type capped struct {
	a           arm
	upTo, lastN int
	last        time.Duration
}

// at is the baseline's table cell and time over recs.
func (c *capped) at(cfg Config, recs []data.Record) (string, time.Duration, error) {
	if n := len(recs); n > c.upTo {
		d := ExtrapolateQuadratic(c.last, c.lastN, n)
		return EstDur(d), d, nil
	}
	_, d, err := timeArm(cfg, c.a, recs)
	c.last, c.lastN = d, len(recs)
	return Dur(d), d, err
}

// --- E2 / Figure 3 left: monolithic Detect UDF vs operator pipeline -----

func fig3left(cfg Config) ([]*Table, error) {
	a, err := newArms(cfg)
	if err != nil {
		return nil, err
	}
	sizes := []int{10_000, 20_000, 50_000, 100_000}
	monoCap := 20_000
	if cfg.Quick {
		sizes = []int{2_000, 5_000}
		monoCap = 2_000
	}
	t := &Table{
		Title:   "Figure 3 (left) — violation detection: single Detect UDF vs Scope/Block/Iterate/Detect pipeline [simulated time, spark]",
		Note:    "Paper shape: the operator decomposition enables blocking + fine-grained distributed execution; the monolithic UDF degrades quadratically.",
		Columns: []string{"rows", "single Detect UDF", "pipeline", "violations", "pipeline speedup"},
	}
	mono := &capped{a: a.udf, upTo: monoCap}
	for _, n := range sizes {
		cfg.logf("fig3left: n=%d", n)
		recs := fig3Tax(n)
		vs, pipe, err := timeArm(cfg, a.pipeline, recs)
		if err != nil {
			return nil, err
		}
		monoCell, monoT, err := mono.at(cfg, recs)
		if err != nil {
			return nil, err
		}
		t.AddRow(Count(n), monoCell, Dur(pipe), Count(vs), Speedup(monoT, pipe))
	}
	return []*Table{t}, nil
}

// --- E3 / Figure 3 right: BigDansing vs baselines on Spark --------------

func fig3right(cfg Config) ([]*Table, error) {
	a, err := newArms(cfg)
	if err != nil {
		return nil, err
	}
	sizes := []int{10_000, 20_000, 50_000, 100_000}
	baseCap := 10_000
	if cfg.Quick {
		sizes = []int{2_000, 5_000}
		baseCap = 2_000
	}
	t := &Table{
		Title:   "Figure 3 (right) — BigDansing vs baselines [simulated time]",
		Note:    "Baselines: SQL-style self-join on spark; NADEEF-style single-node pairwise. Paper stopped its baselines after 22 h; ours are extrapolated past the cap.",
		Columns: []string{"rows", "BigDansing (spark)", "self-join (spark)", "NADEEF-style (java)", "best-baseline/BigDansing"},
	}
	self, nadeef := &capped{a: a.selfJoin, upTo: baseCap}, &capped{a: a.nadeef, upTo: baseCap}
	for _, n := range sizes {
		cfg.logf("fig3right: n=%d", n)
		recs := fig3Tax(n)
		_, bd, err := timeArm(cfg, a.pipeline, recs)
		if err != nil {
			return nil, err
		}
		selfCell, selfT, err := self.at(cfg, recs)
		if err != nil {
			return nil, err
		}
		nadeefCell, nadeefT, err := nadeef.at(cfg, recs)
		if err != nil {
			return nil, err
		}
		t.AddRow(Count(n), Dur(bd), selfCell, nadeefCell, Speedup(min(selfT, nadeefT), bd))
	}
	return []*Table{t}, nil
}

// --- E4: IEJoin extensibility -------------------------------------------

func iejoin(cfg Config) ([]*Table, error) {
	a, err := newArms(cfg)
	if err != nil {
		return nil, err
	}
	sizes := []int{2_000, 5_000, 10_000, 20_000, 50_000}
	nlCap := 10_000
	if cfg.Quick {
		sizes = []int{500, 1_000}
		nlCap = 1_000
	}
	t := &Table{
		Title:   "E4 — inequality rule detection: IEJoin physical operator vs nested loop [simulated time, spark]",
		Note:    "The paper's extensibility example (§5.1): IEJoin was added as a new physical operator to make inequality rules tractable.",
		Columns: []string{"rows", "IEJoin", "nested loop", "violations", "IEJoin speedup"},
	}
	loop := &capped{a: a.nestedLoop, upTo: nlCap}
	for _, n := range sizes {
		cfg.logf("iejoin: n=%d", n)
		recs := dcTax(n, 0.002)
		vs, ie, err := timeArm(cfg, a.ieJoin, recs)
		if err != nil {
			return nil, err
		}
		nlCell, nl, err := loop.at(cfg, recs)
		if err != nil {
			return nil, err
		}
		t.AddRow(Count(n), Dur(ie), nlCell, Count(vs), Speedup(nl, ie))
	}
	return []*Table{t}, nil
}

// --- E5: the §1 multi-platform pipeline ----------------------------------

// SensorPipeline is the oil-&-gas motivating pipeline (E5 and the
// bench suite's multi-platform scenario): sensorFeatures over readings.
func SensorPipeline(ctx *rheem.Context, readings []data.Record, opts ...rheem.RunOption) ([]data.Record, *rheem.Report, error) {
	return sensorFeatures(ctx.NewJob("sensor-features").ReadCollection("readings", readings)).Collect(opts...)
}

// sensorFeatures is E5's dataflow: normalise raw sensor quanta (opaque
// UDF), aggregate per well (relational strength), emit per-well feature
// vectors sorted by well.
func sensorFeatures(readings *rheem.DataQuanta) *rheem.DataQuanta {
	return readings.
		// Normalise: psi→kPa-ish unit conversion plus clamping, an
		// opaque per-quantum UDF.
		Map(func(r data.Record) (data.Record, error) {
			p := r.Field(2).Float() * 6.894
			if p < 0 {
				p = 0
			}
			return data.NewRecord(r.Field(0),
				data.Float(p), data.Float(r.Field(3).Float()), data.Float(r.Field(4).Float()),
				data.Int(1)), nil
		}).
		// Aggregate per well: sums + count.
		ReduceByKey(plan.FieldKey(0), func(a, b data.Record) (data.Record, error) {
			return data.NewRecord(a.Field(0),
				data.Float(a.Field(1).Float()+b.Field(1).Float()),
				data.Float(a.Field(2).Float()+b.Field(2).Float()),
				data.Float(a.Field(3).Float()+b.Field(3).Float()),
				data.Int(a.Field(4).Int()+b.Field(4).Int())), nil
		}).
		// Feature vector per well.
		Map(func(r data.Record) (data.Record, error) {
			n := float64(r.Field(4).Int())
			return data.NewRecord(r.Field(0), data.Vec([]float64{
				r.Field(1).Float() / n, r.Field(2).Float() / n, r.Field(3).Float() / n,
			})), nil
		}).
		Sort(plan.FieldKey(0), false)
}

// wellClusters is E5's downstream ML step, on free choice: k-means
// (k = 4) over the per-well feature vectors SensorPipeline emits.
func wellClusters(ctx *rheem.Context, wells []data.Record, iters int) ([]data.Record, *rheem.Report, error) {
	pts := make([]data.Record, len(wells))
	for i, w := range wells {
		pts[i] = data.NewRecord(data.Int(int64(i)), w.Field(1))
	}
	return ml.KMeans(pts, ml.KMeansConfig{K: 4, Iterations: iters, Dim: 3}).Run(ctx)
}

func multiplatform(cfg Config) ([]*Table, error) {
	ctx, err := newCtx(cfg)
	if err != nil {
		return nil, err
	}
	n := 200_000
	if cfg.Quick {
		n = 10_000
	}
	readings := datagen.Sensors(datagen.SensorConfig{N: n, Wells: 32, Seed: 7})
	t := &Table{
		Title:   fmt.Sprintf("E5 — §1 pipeline (normalise → aggregate per well → features), %s readings [simulated time]", Count(n)),
		Note:    "Free optimizer choice vs each platform pinned end-to-end; the optimizer may split the plan across platforms.",
		Columns: []string{"configuration", "time", "platforms used", "atoms"},
	}
	type option struct {
		name string
		opts []rheem.RunOption
	}
	options := []option{
		{"optimizer (free)", nil},
		{"pinned java", []rheem.RunOption{rheem.OnPlatform(javaengine.ID)}},
		{"pinned spark", []rheem.RunOption{rheem.OnPlatform(sparksim.ID)}},
		{"pinned relational", []rheem.RunOption{rheem.OnPlatform(relengine.ID)}},
	}
	var free, bestPinned time.Duration
	for i, opt := range options {
		cfg.logf("multiplatform: %s", opt.name)
		wells, rep, err := SensorPipeline(ctx, readings, opt.opts...)
		if err != nil {
			return nil, err
		}
		if len(wells) != 32 {
			return nil, fmt.Errorf("bench: pipeline produced %d wells", len(wells))
		}
		d := pick(cfg, rep.Metrics)
		if i == 0 {
			free = d
		} else if bestPinned == 0 || d < bestPinned {
			bestPinned = d
		}
		t.AddRow(opt.name, Dur(d), platformsUsed(rep), fmt.Sprint(len(rep.Plan.Atoms)))
	}
	t.Note += fmt.Sprintf(" Free-choice vs best pinned: %s.", Speedup(bestPinned, free))

	// Downstream ML step on the aggregated wells: k-means over 32 tiny
	// feature vectors — firmly single-node territory.
	wells, _, err := SensorPipeline(ctx, readings)
	if err != nil {
		return nil, err
	}
	iters := 10
	if cfg.Quick {
		iters = 3
	}
	state, rep, err := wellClusters(ctx, wells, iters)
	if err != nil {
		return nil, err
	}
	t2 := &Table{
		Title:   "E5 (cont.) — k-means over aggregated wells, optimizer choice",
		Columns: []string{"k", "iterations", "time", "platforms used", "clusters"},
	}
	t2.AddRow("4", fmt.Sprint(iters), Dur(pick(cfg, rep.Metrics)), platformsUsed(rep), fmt.Sprint(len(state)))
	return []*Table{t, t2}, nil
}

// --- E6: optimizer choice vs oracle over the Figure 2 sweep --------------

func optimizerChoice(cfg Config) ([]*Table, error) {
	ctx, err := newCtx(cfg)
	if err != nil {
		return nil, err
	}
	sizes := []int{1_000, 10_000, 50_000, 100_000, 200_000, 500_000}
	iters := 100
	if cfg.Quick {
		sizes = []int{500, 2_000, 10_000}
		iters = 10
	}
	t := &Table{
		Title:   "E6 — optimizer platform choice vs oracle (SVM sweep) [simulated time]",
		Note:    "Regret = optimizer time − best fixed platform time. The §2 claim: the system should 'select the best available platform ... for a different input'.",
		Columns: []string{"points", "java", "spark", "optimizer", "chosen", "regret"},
	}
	for _, n := range sizes {
		cfg.logf("optimizer: n=%d", n)
		pts := fig2Points(n, uint64(n))
		times := map[string]time.Duration{}
		var chosen string
		for _, opt := range []struct {
			name string
			opts []rheem.RunOption
		}{
			{"java", []rheem.RunOption{rheem.OnPlatform(javaengine.ID)}},
			{"spark", []rheem.RunOption{rheem.OnPlatform(sparksim.ID)}},
			{"optimizer", nil},
		} {
			_, rep, err := ml.SVM(pts, ml.GradientConfig{Iterations: iters, Dim: fig2Dim}).Run(ctx, opt.opts...)
			if err != nil {
				return nil, err
			}
			times[opt.name] = pick(cfg, rep.Metrics)
			if opt.name == "optimizer" {
				chosen = platformsUsed(rep)
			}
		}
		regret := max(times["optimizer"]-min(times["java"], times["spark"]), 0)
		t.AddRow(Count(n), Dur(times["java"]), Dur(times["spark"]),
			Dur(times["optimizer"]), chosen, Dur(regret))
	}
	return []*Table{t}, nil
}
