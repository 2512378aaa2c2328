package ml

import (
	"testing"

	"rheem"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

func testCtx(t *testing.T) *rheem.Context {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestSVMLearnsSeparableData(t *testing.T) {
	pts := datagen.Points(datagen.PointsConfig{N: 400, Dim: 6, Seed: 1})
	tpl := SVM(pts, GradientConfig{Iterations: 60, Dim: 6, LearningRate: 0.5})
	state, rep, err := tpl.Run(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Weights(state)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(w, pts); acc < 0.95 {
		t.Errorf("SVM accuracy %.3f < 0.95", acc)
	}
	if rep.Metrics.Jobs < 60 {
		t.Errorf("60-iteration training launched only %d jobs", rep.Metrics.Jobs)
	}
	// Final iteration counter must equal the iteration count.
	if state[0].Field(0).Int() != 60 {
		t.Errorf("iteration counter = %d", state[0].Field(0).Int())
	}
}

func TestSVMSameModelOnJavaAndSpark(t *testing.T) {
	pts := datagen.Points(datagen.PointsConfig{N: 200, Dim: 4, Seed: 2})
	ctx := testCtx(t)
	run := func(opts ...rheem.RunOption) []float64 {
		tpl := SVM(pts, GradientConfig{Iterations: 25, Dim: 4})
		state, _, err := tpl.Run(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := Weights(state)
		return w
	}
	wj := run(rheem.OnPlatform(javaengine.ID))
	ws := run(rheem.OnPlatform(sparksim.ID))
	for i := range wj {
		if diff := wj[i] - ws[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("weight %d differs across platforms: %g vs %g", i, wj[i], ws[i])
		}
	}
}

func TestLinearRegressionRecoversPlane(t *testing.T) {
	// y = 2·x0 - 3·x1 over a grid.
	var pts []data.Record
	for i := -5; i <= 5; i++ {
		for j := -5; j <= 5; j++ {
			x := []float64{float64(i), float64(j)}
			pts = append(pts, data.NewRecord(data.Float(2*x[0]-3*x[1]), data.Vec(x)))
		}
	}
	tpl := LinearRegression(pts, GradientConfig{Iterations: 120, Dim: 2, LearningRate: 0.05})
	state, _, err := tpl.Run(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := Weights(state)
	if w[0] < 1.8 || w[0] > 2.2 || w[1] < -3.2 || w[1] > -2.8 {
		t.Errorf("recovered weights %v, want ≈ (2, -3)", w)
	}
}

func TestLogisticRegressionSeparates(t *testing.T) {
	pts := datagen.Points(datagen.PointsConfig{N: 300, Dim: 4, Seed: 3})
	tpl := LogisticRegression(pts, GradientConfig{Iterations: 80, Dim: 4, LearningRate: 0.8})
	state, _, err := tpl.Run(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := Weights(state)
	if acc := Accuracy(w, pts); acc < 0.9 {
		t.Errorf("logreg accuracy %.3f < 0.9", acc)
	}
}

func TestKMeansFindsBlobs(t *testing.T) {
	// Two well-separated blobs via the points generator (labels ±1
	// centre the blobs apart); k=2 must split them.
	raw := datagen.Points(datagen.PointsConfig{N: 200, Dim: 3, Seed: 4})
	pts := IndexPoints(raw)
	tpl := KMeans(pts, KMeansConfig{K: 2, Iterations: 10, Dim: 3})
	state, _, err := tpl.Run(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	cents := Centroids(state)
	if len(cents) != 2 {
		t.Fatalf("got %d centroids", len(cents))
	}
	// Points from the same generator blob must co-cluster with high
	// purity.
	agree := 0
	for i, p := range raw {
		a := Assign(cents, p.Field(1).Vec())
		// Compare against the label sign via a majority convention:
		// count agreement of (cluster == cluster of first positive).
		_ = i
		if (a == Assign(cents, raw[0].Field(1).Vec())) == (p.Field(0).Float() == raw[0].Field(0).Float()) {
			agree++
		}
	}
	if purity := float64(agree) / float64(len(raw)); purity < 0.9 {
		t.Errorf("cluster purity %.3f < 0.9", purity)
	}
}

func TestKMeansToleranceStopsEarly(t *testing.T) {
	raw := datagen.Points(datagen.PointsConfig{N: 100, Dim: 2, Seed: 5})
	pts := IndexPoints(raw)
	tpl := KMeans(pts, KMeansConfig{K: 2, Iterations: 50, Dim: 2, Tolerance: 1e-6})
	state, rep, err := tpl.Run(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 2 {
		t.Fatalf("%d centroids", len(state))
	}
	// Early stop ⇒ far fewer jobs than the 50-iteration bound would
	// produce (each iteration is at least one job).
	if rep.Metrics.Jobs >= 50 {
		t.Errorf("tolerance did not stop early: %d jobs", rep.Metrics.Jobs)
	}
}

func TestTemplateErrors(t *testing.T) {
	ctx := testCtx(t)
	if _, _, err := SVM(nil, GradientConfig{Iterations: 5, Dim: 2}).Run(ctx); err == nil {
		t.Error("SVM with no points accepted")
	}
	bad := &Template{Name: "bad", Iterations: 0}
	if _, _, err := bad.Run(ctx); err == nil {
		t.Error("zero-iteration template accepted")
	}
	if _, _, err := KMeans(nil, KMeansConfig{K: 3}).Run(ctx); err == nil {
		t.Error("kmeans with too few points accepted")
	}
}

func TestWeightsValidation(t *testing.T) {
	if _, err := Weights(nil); err == nil {
		t.Error("empty state accepted")
	}
	if _, err := Weights([]data.Record{
		data.NewRecord(data.Int(0), data.Vec([]float64{1})),
		data.NewRecord(data.Int(0), data.Vec([]float64{2})),
	}); err == nil {
		t.Error("multi-record state accepted")
	}
}

func TestPredictHelpers(t *testing.T) {
	w := []float64{1, -1}
	if PredictSign(w, []float64{2, 1}) != 1 {
		t.Error("positive side misclassified")
	}
	if PredictSign(w, []float64{0, 5}) != -1 {
		t.Error("negative side misclassified")
	}
	pts := []data.Record{
		data.NewRecord(data.Float(1), data.Vec([]float64{2, 1})),
		data.NewRecord(data.Float(-1), data.Vec([]float64{0, 5})),
	}
	if Accuracy(w, pts) != 1 {
		t.Error("accuracy wrong")
	}
	if Accuracy(w, nil) != 0 {
		t.Error("empty accuracy wrong")
	}
}
