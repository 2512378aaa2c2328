// E15: the cold-vs-warm oracle replay. The self-tuning calibrator's
// whole claim is that the optimizer's platform choices improve with
// observed traffic; this harness makes that claim falsifiable. It
// injects a known estimation error into one platform's cost models —
// the kind of mis-set constant the paper's §3.3 cost model is full of —
// then replays the same job round after round, each round measuring
// three arms: the (calibrated) optimizer's choice, and the two pinned
// single-platform oracle arms. Every arm's run folds its
// estimate-vs-actual residuals into one shared calibrator, so the gap
// between the optimizer arm and the oracle (best pinned arm) should
// shrink as the calibrator learns the injected skew away. The E15 gate
// (replay_test.go) requires the warmed gap to be at most half the cold
// gap.
package bench

import (
	"fmt"
	"time"

	"rheem"
	"rheem/internal/apps/ml"
	"rheem/internal/core/cost"
	"rheem/internal/core/physical"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

func init() { register("calibration", calibrationExperiment) }

// ReplaySkew is the estimation error injected into the java cost
// models: every estimate is inflated ×32, far past java's true
// advantage on the replay workload, so the cold optimizer wrongly
// routes to spark. The calibrator's clamp range must contain 1/32 for
// the correction to be learnable (the replay config allows 1/64..64).
const ReplaySkew = 32

// ReplayConfig returns the calibrator configuration the replay runs
// under: faster decay and a lower min-sample guard than the defaults,
// so a short replay warms within a few rounds, and a clamp range wide
// enough to express the injected ×32 skew.
func ReplayConfig() cost.CalibratorConfig {
	return cost.CalibratorConfig{Decay: 0.8, MinSamples: 2, MinFactor: 1.0 / 64, MaxFactor: 64}
}

// ReplayRound is one round of the replay: the three arms' simulated
// times, what the optimizer picked, and its gap to the oracle.
type ReplayRound struct {
	Round     int
	Optimizer time.Duration // simulated time of the optimizer arm
	Java      time.Duration // pinned-java oracle arm
	Spark     time.Duration // pinned-spark oracle arm
	Chosen    string        // platforms the optimizer arm used
	Gap       time.Duration // max(0, Optimizer − min(Java, Spark))
	Folds     int64         // calibrator folds completed after this round
}

// ReplayResult is the replay's learning curve, cold (round 0) to warm.
type ReplayResult struct {
	Skew   float64
	Rounds []ReplayRound
}

// CalibrationReplay runs the E15 oracle replay for the given number of
// rounds (<= 0 means 6) and returns the learning curve. Deterministic:
// fixed datagen seed, simulated time only.
func CalibrationReplay(cfg Config, rounds int) (*ReplayResult, error) {
	if rounds <= 0 {
		rounds = 6
	}
	cal := cost.NewCalibrator(ReplayConfig())
	opts := []rheem.ContextOption{rheem.WithCalibration(cal)}
	if cfg.Hub != nil {
		opts = append(opts, rheem.WithTelemetryHub(cfg.Hub))
	}
	ctx, err := rheem.NewContext(rheem.Config{}, opts...)
	if err != nil {
		return nil, err
	}
	skewed := ctx.Registry().RewriteCosts(javaengine.ID, func(m cost.Model) cost.Model {
		return func(op *physical.Operator, inCards []int64, outCard int64) cost.Cost {
			return m(op, inCards, outCard).Times(ReplaySkew)
		}
	})
	if skewed == 0 {
		return nil, fmt.Errorf("calibration replay: no java mappings to skew")
	}

	// The workload sits on the java side of the Figure 2 crossover:
	// small enough that spark's per-job overhead dominates, so the
	// skew-misled cold choice is measurably wrong.
	const (
		nPts  = 2_000
		iters = 10
		dim   = 10
	)
	pts := datagen.Points(datagen.PointsConfig{N: nPts, Dim: dim, Noise: 0.05, Seed: 42})

	res := &ReplayResult{Skew: ReplaySkew}
	for r := 0; r < rounds; r++ {
		cfg.logf("calibration: round %d", r)
		run := func(runOpts ...rheem.RunOption) (time.Duration, *rheem.Report, error) {
			tpl := ml.SVM(pts, ml.GradientConfig{Iterations: iters, Dim: dim})
			_, rep, err := tpl.Run(ctx, runOpts...)
			if err != nil {
				return 0, nil, err
			}
			return rep.Metrics.Sim, rep, nil
		}
		round := ReplayRound{Round: r}
		// Optimizer arm first: round 0's choice is fully cold.
		var rep *rheem.Report
		if round.Optimizer, rep, err = run(); err != nil {
			return nil, err
		}
		round.Chosen = platformsUsed(rep)
		if round.Java, _, err = run(rheem.OnPlatform(javaengine.ID)); err != nil {
			return nil, err
		}
		if round.Spark, _, err = run(rheem.OnPlatform(sparksim.ID)); err != nil {
			return nil, err
		}
		oracle := round.Java
		if round.Spark < oracle {
			oracle = round.Spark
		}
		round.Gap = round.Optimizer - oracle
		if round.Gap < 0 {
			round.Gap = 0
		}
		round.Folds = cal.Folds()
		res.Rounds = append(res.Rounds, round)
	}
	return res, nil
}

// calibrationExperiment renders the replay as the E15 table for
// rheem-bench.
func calibrationExperiment(cfg Config) ([]*Table, error) {
	rounds := 6
	if cfg.Quick {
		rounds = 4
	}
	res, err := CalibrationReplay(cfg, rounds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("E15 — cold-vs-warm oracle replay (java estimates skewed ×%d) [simulated time]", ReplaySkew),
		Note:    "Gap = optimizer − best pinned platform. Every arm folds into one calibrator; the gap should collapse once the skew is learned away.",
		Columns: []string{"round", "optimizer", "java", "spark", "chosen", "gap", "folds"},
	}
	for _, r := range res.Rounds {
		t.AddRow(fmt.Sprint(r.Round), Dur(r.Optimizer), Dur(r.Java), Dur(r.Spark),
			r.Chosen, Dur(r.Gap), fmt.Sprint(r.Folds))
	}
	return []*Table{t}, nil
}
