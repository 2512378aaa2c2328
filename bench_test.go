// Benchmarks: one testing.B target per paper artifact (see DESIGN.md
// §2). These run the same code paths as cmd/rheem-bench at reduced
// sizes so `go test -bench=.` finishes quickly; the full sweeps that
// regenerate the figures live behind the rheem-bench binary.
package rheem_test

import (
	"fmt"
	"testing"
	"time"

	"rheem"
	"rheem/internal/apps/cleaning"
	"rheem/internal/apps/graph"
	"rheem/internal/apps/ml"
	"rheem/internal/bench"
	"rheem/internal/core/engine"
	"rheem/internal/core/metrics"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

func benchCtx(b *testing.B) *rheem.Context {
	b.Helper()
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// --- E1 / Figure 2 -------------------------------------------------------

func benchSVM(b *testing.B, n int, platform engine.PlatformID) {
	ctx := benchCtx(b)
	pts := datagen.Points(datagen.PointsConfig{N: n, Dim: 10, Noise: 0.05, Seed: uint64(n)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpl := ml.SVM(pts, ml.GradientConfig{Iterations: 10, Dim: 10})
		if _, _, err := tpl.Run(ctx, rheem.OnPlatform(platform)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2SVMJava(b *testing.B) {
	b.Run("n=1000", func(b *testing.B) { benchSVM(b, 1_000, javaengine.ID) })
	b.Run("n=10000", func(b *testing.B) { benchSVM(b, 10_000, javaengine.ID) })
}

func BenchmarkFig2SVMSpark(b *testing.B) {
	b.Run("n=1000", func(b *testing.B) { benchSVM(b, 1_000, sparksim.ID) })
	b.Run("n=10000", func(b *testing.B) { benchSVM(b, 10_000, sparksim.ID) })
}

// --- E2 / Figure 3 left --------------------------------------------------

func fig3Fixture(b *testing.B, n int) ([]data.Record, *cleaning.Detector, cleaning.FD, *rheem.Context) {
	b.Helper()
	ctx := benchCtx(b)
	fd := cleaning.FD{RuleName: "zip->city", ID: datagen.TaxID,
		LHS: []int{datagen.TaxZip}, RHS: []int{datagen.TaxCity}}
	det, err := cleaning.NewDetector(ctx, fd)
	if err != nil {
		b.Fatal(err)
	}
	recs := datagen.Tax(datagen.TaxConfig{N: n, Zips: n / 50, ErrorRate: 0.01, Seed: uint64(n)})
	return recs, det, fd, ctx
}

func BenchmarkFig3LeftPipeline(b *testing.B) {
	recs, det, _, _ := fig3Fixture(b, 5_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.Detect(recs, rheem.OnPlatform(sparksim.ID)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3LeftMonolithic(b *testing.B) {
	recs, det, fd, _ := fig3Fixture(b, 5_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.DetectMonolithic(fd, recs, rheem.OnPlatform(sparksim.ID)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3 / Figure 3 right -------------------------------------------------

func BenchmarkFig3RightBigDansing(b *testing.B) {
	recs, det, _, _ := fig3Fixture(b, 5_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.Detect(recs, rheem.OnPlatform(sparksim.ID)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3RightSelfJoin(b *testing.B) {
	recs, det, fd, _ := fig3Fixture(b, 5_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.DetectSelfJoin(fd, recs, rheem.OnPlatform(sparksim.ID)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4 / IEJoin ----------------------------------------------------------

func dcFixture(b *testing.B, n int) ([]data.Record, cleaning.DenialConstraint, *rheem.Context) {
	b.Helper()
	ctx := benchCtx(b)
	dc := cleaning.DenialConstraint{RuleName: "salary-rate", ID: datagen.TaxID,
		Preds: []cleaning.Pred{
			{LeftField: datagen.TaxSalary, Op: plan.Greater, RightField: datagen.TaxSalary},
			{LeftField: datagen.TaxRate, Op: plan.Less, RightField: datagen.TaxRate},
		}, FixField: datagen.TaxRate}
	recs := datagen.Tax(datagen.TaxConfig{N: n, Zips: 50, ErrorRate: 0.002, Seed: uint64(n)})
	return recs, dc, ctx
}

func BenchmarkIEJoinDetection(b *testing.B) {
	recs, dc, ctx := dcFixture(b, 5_000)
	det, err := cleaning.NewDetector(ctx, dc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.Detect(recs, rheem.OnPlatform(sparksim.ID)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThetaCartesianDetection(b *testing.B) {
	recs, dc, ctx := dcFixture(b, 2_000)
	det, err := cleaning.NewDetector(ctx, cleaning.StripConditions(dc))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.Detect(recs, rheem.OnPlatform(sparksim.ID)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5 / multi-platform pipeline ----------------------------------------

func benchSensorPipeline(b *testing.B, opts ...rheem.RunOption) {
	ctx := benchCtx(b)
	readings := datagen.Sensors(datagen.SensorConfig{N: 20_000, Wells: 32, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := ctx.NewJob("sensors").
			ReadCollection("r", readings).
			Map(func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(0), data.Float(r.Field(2).Float()*6.894), data.Int(1)), nil
			}).
			ReduceByKey(plan.FieldKey(0), func(a, c data.Record) (data.Record, error) {
				return data.NewRecord(a.Field(0),
					data.Float(a.Field(1).Float()+c.Field(1).Float()),
					data.Int(a.Field(2).Int()+c.Field(2).Int())), nil
			}).
			Collect(opts...)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiPlatformFree(b *testing.B) { benchSensorPipeline(b) }
func BenchmarkMultiPlatformJava(b *testing.B) {
	benchSensorPipeline(b, rheem.OnPlatform(javaengine.ID))
}
func BenchmarkMultiPlatformSpark(b *testing.B) { benchSensorPipeline(b, rheem.OnPlatform(sparksim.ID)) }
func BenchmarkMultiPlatformRel(b *testing.B)   { benchSensorPipeline(b, rheem.OnPlatform(relengine.ID)) }

// --- E6 / optimizer choice ------------------------------------------------

func BenchmarkOptimizerChoice(b *testing.B) {
	ctx := benchCtx(b)
	pts := datagen.Points(datagen.PointsConfig{N: 5_000, Dim: 10, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpl := ml.SVM(pts, ml.GradientConfig{Iterations: 5, Dim: 10})
		if _, _, err := tpl.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeOnly isolates plan optimization (no execution).
func BenchmarkOptimizeOnly(b *testing.B) {
	ctx := benchCtx(b)
	recs := datagen.ZipfInts(1000, 50, 1)
	p, err := ctx.NewJob("opt").
		ReadCollection("in", recs).
		Filter(func(r data.Record) (bool, error) { return true, nil }, 0.5).
		ReduceByKey(plan.FieldKey(0), plan.SumField(0)).
		Sort(plan.FieldKey(0), false).
		Plan()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Explain(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent DAG scheduler ---------------------------------------------

// BenchmarkExecutorParallelism runs the wide fan-out diamond (8 map
// branches pinned across platforms, per-record work in each branch) at
// different scheduler worker-pool bounds. Parallelism 1 reproduces the
// sequential executor; higher bounds overlap independent atoms.
func BenchmarkExecutorParallelism(b *testing.B) {
	ctx := benchCtx(b)
	const branches, recs = 8, 20
	const delay = 500 * time.Microsecond
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunFanOutTraced(ctx.Registry(), nil, branches, recs, delay, par)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Records) != branches*recs {
					b.Fatalf("%d records", len(res.Records))
				}
			}
		})
	}
}

// BenchmarkExecutorParallelismMetrics is BenchmarkExecutorParallelism
// with the span stream feeding a live telemetry hub — the acceptance
// benchmark for the metrics layer's hot-path cost (must stay within a
// few percent of the untraced run).
func BenchmarkExecutorParallelismMetrics(b *testing.B) {
	ctx := benchCtx(b)
	hub := metrics.NewHub()
	const branches, recs = 8, 20
	const delay = 500 * time.Microsecond
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunFanOutTraced(ctx.Registry(), hub, branches, recs, delay, par)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Records) != branches*recs {
					b.Fatalf("%d records", len(res.Records))
				}
			}
		})
	}
}

// BenchmarkExecutorParallelismProfiled adds the flight recorder on top
// of the live hub: every run's trace snapshot is folded into the
// bounded profile history (critical path, attribution, Perfetto-ready
// spans). The acceptance bar is the profiler's overhead over
// BenchmarkExecutorParallelismMetrics — it must stay under a few
// percent, since profile analysis runs once per run, off the atom hot
// path.
func BenchmarkExecutorParallelismProfiled(b *testing.B) {
	ctx := benchCtx(b)
	hub := metrics.NewHub()
	hub.SetFlightRecorder(profile.NewRecorder(8, nil))
	const branches, recs = 8, 20
	const delay = 500 * time.Microsecond
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunFanOutTraced(ctx.Registry(), hub, branches, recs, delay, par)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Records) != branches*recs {
					b.Fatalf("%d records", len(res.Records))
				}
			}
		})
	}
}

// --- E11 / one intra-atom parallelism: row windows ------------------------

// BenchmarkShardedExecution runs the wide single-atom chain (one source
// feeding a Map+Filter chain with CPU-bound per-record work over eight
// row windows and a ragged ninth — no independent branches, so
// inter-atom scheduling cannot help). Its windows run on engine's helper
// runtime, so run it at -cpu 1,2 to see the atom's wall time shrink;
// records are identical at every width.
func BenchmarkShardedExecution(b *testing.B) {
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := bench.RunWideTraced(ctx.Registry(), nil, bench.WideRows)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != bench.WideRecords(bench.WideRows) {
			b.Fatalf("%d records", len(res.Records))
		}
	}
}

// BenchmarkFailover compares the fan-out diamond on a healthy branch
// platform against the same plan when that platform dies after one
// execution: the delta is the cost of the retry → circuit-breaker →
// cross-platform-failover recovery path (re-planning included).
func BenchmarkFailover(b *testing.B) {
	const branches, recs = 4, 20
	for _, sc := range []struct {
		name      string
		failAfter int
	}{
		{"clean", -1},
		{"failover", 1},
	} {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunChaos(branches, recs, 0, sc.failAfter)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Records) != branches*recs {
					b.Fatalf("%d records", len(res.Records))
				}
				if sc.failAfter >= 0 && res.Failovers == 0 {
					b.Fatal("platform died but no failover happened")
				}
			}
		})
	}
}

// --- application-level extras ---------------------------------------------

func BenchmarkPageRank(b *testing.B) {
	ctx := benchCtx(b)
	edges := datagen.Graph(datagen.GraphConfig{Nodes: 500, Edges: 3_000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.PageRank(ctx, edges, graph.PageRankConfig{Iterations: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepair(b *testing.B) {
	recs, det, fd, _ := fig3Fixture(b, 5_000)
	vs, _, err := det.Detect(recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cleaning.Repair(recs, vs, []cleaning.Rule{fd}, datagen.TaxID); err != nil {
			b.Fatal(err)
		}
	}
}
