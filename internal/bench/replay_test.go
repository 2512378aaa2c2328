package bench

import (
	"testing"
)

// TestCalibrationReplayClosesOracleGap is the E15 gate: with a known
// ×32 estimation error injected into java's cost models, the cold
// optimizer must pick a measurably-wrong plan (positive oracle gap),
// and after the replay has warmed the shared calibrator the gap must
// have shrunk to at most half its cold value. Fixed seeds and
// simulated time keep the margin wide: the cold gap is ~35× the warm
// gap in practice, so the ≤½ gate has room for the small wall-derived
// jitter in the simulated clock.
func TestCalibrationReplayClosesOracleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs 3 arms × 6 rounds; skipped under -short")
	}
	res, err := CalibrationReplay(Config{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		t.Logf("round %d: opt=%v java=%v spark=%v chosen=%s gap=%v folds=%d",
			r.Round, r.Optimizer, r.Java, r.Spark, r.Chosen, r.Gap, r.Folds)
	}

	cold, warm := res.Rounds[0].Gap, res.Rounds[len(res.Rounds)-1].Gap
	// The injected skew must actually mislead the cold optimizer —
	// otherwise the experiment gates nothing.
	if cold <= 0 {
		t.Fatalf("cold optimizer already matched the oracle (gap %v); the ×%v skew is not misleading it", cold, res.Skew)
	}
	if warm > cold/2 {
		t.Errorf("calibration did not close the oracle gap: cold %v, warm %v (want <= %v)", cold, warm, cold/2)
	}

	// Every arm of every round folds into the shared calibrator.
	last := res.Rounds[len(res.Rounds)-1]
	if want := int64(3 * len(res.Rounds)); last.Folds != want {
		t.Errorf("calibrator folded %d times, want %d (3 arms × %d rounds)", last.Folds, want, len(res.Rounds))
	}
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Folds <= res.Rounds[i-1].Folds {
			t.Errorf("folds not increasing at round %d: %d -> %d", i, res.Rounds[i-1].Folds, res.Rounds[i].Folds)
		}
	}

	// The oracle arms are pinned, so their sim times must stay within
	// the same order of magnitude across rounds — if an arm drifts
	// wildly the "replay" is not replaying the same experiment.
	for _, r := range res.Rounds {
		if r.Java <= 0 || r.Spark <= 0 {
			t.Fatalf("round %d has a non-positive oracle arm: %+v", r.Round, r)
		}
		if r.Java > res.Rounds[0].Java*4 || r.Java < res.Rounds[0].Java/4 {
			t.Errorf("java arm drifted at round %d: %v vs round 0's %v", r.Round, r.Java, res.Rounds[0].Java)
		}
	}
}

// TestCalibrationExperimentRegistered pins the rheem-bench surface: the
// replay is runnable as the "calibration" experiment and renders one
// row per round.
func TestCalibrationExperimentRegistered(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full replay; skipped under -short")
	}
	found := false
	for _, n := range Experiments() {
		if n == "calibration" {
			found = true
		}
	}
	if !found {
		t.Fatalf("calibration experiment not registered: %v", Experiments())
	}
	tables, err := Run("calibration", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	if got := len(tables[0].Rows); got != 4 {
		t.Fatalf("quick replay rendered %d rows, want 4", got)
	}
}
