package bench

import (
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/plan"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// TestSection1PlacementPlan is the paper's §1 claim as E5's optimizer
// sees it: a large aggregation belongs on a cluster and a small ML task
// on a single node. It plans E5's dataflow without running it, sizing
// the readings from a source's cardinality hint: java alone up to
// 100 000 claimed readings, sparksim alone at 200 000 (E5's full scale).
// On the production cost constants the whole plan moves between 185 000
// and 190 000. Then it runs E5's k-means over the 32 wells, which must
// stay on java.
func TestSection1PlacementPlan(t *testing.T) {
	ctx, err := newCtx(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		readings int64
		want     engine.PlatformID
	}{{10_000, javaengine.ID}, {50_000, javaengine.ID}, {100_000, javaengine.ID}, {200_000, sparksim.ID}} {
		p, err := sensorFeatures(ctx.NewJob("sensor-features").ReadSource("readings", plan.Collection(nil), tc.readings)).Plan()
		if err != nil {
			t.Fatal(err)
		}
		ep, err := explainPlan(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if n := assignedTo(ep); len(n) != 1 || n[tc.want] == 0 {
			t.Errorf("at %d readings the plan is on %v, want %s alone", tc.readings, n, tc.want)
		}
	}

	wells, _, err := SensorPipeline(ctx, datagen.Sensors(datagen.SensorConfig{N: 2_000, Wells: 32, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if len(wells) != 32 {
		t.Fatalf("the pipeline emitted %d wells, want 32", len(wells))
	}
	_, rep, err := wellClusters(ctx, wells, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := assignedTo(rep.Plan); len(n) != 1 || n[javaengine.ID] == 0 {
		t.Errorf("k-means over 32 wells ran on %v, want java alone", n)
	}
}
