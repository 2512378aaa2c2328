package graph

import (
	"math"
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

func edge(s, d int64) data.Record { return data.NewRecord(data.Int(s), data.Int(d)) }

func TestPageRankStarGraph(t *testing.T) {
	// Star: everyone links to 0; node 0 links to 1. Node 0 must end up
	// with the highest rank, node 1 second.
	edges := []data.Record{
		edge(1, 0), edge(2, 0), edge(3, 0), edge(4, 0), edge(0, 1),
	}
	ranks, rep, err := PageRank(testCtx(t), edges, PageRankConfig{Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 5 {
		t.Fatalf("%d ranks", len(ranks))
	}
	if !(ranks[0] > ranks[1] && ranks[1] > ranks[2]) {
		t.Errorf("rank order wrong: %v", ranks)
	}
	for n, r := range ranks {
		if r <= 0 || math.IsNaN(r) {
			t.Errorf("node %d rank %v", n, r)
		}
	}
	if rep.Metrics.Jobs < 15 {
		t.Errorf("15 iterations ran %d jobs", rep.Metrics.Jobs)
	}
}

func TestPageRankCycleIsUniform(t *testing.T) {
	// A directed cycle is perfectly symmetric: ranks must converge to
	// equal values.
	edges := []data.Record{edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 0)}
	ranks, _, err := PageRank(testCtx(t), edges, PageRankConfig{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	for n, r := range ranks {
		if math.Abs(r-0.25) > 0.01 {
			t.Errorf("cycle node %d rank %v, want ≈0.25", n, r)
		}
	}
}

func TestPageRankSameAcrossPlatforms(t *testing.T) {
	edges := datagen.Graph(datagen.GraphConfig{Nodes: 30, Edges: 80, Seed: 1})
	ctx := testCtx(t)
	rj, _, err := PageRank(ctx, edges, PageRankConfig{Iterations: 8}, rheem.OnPlatform(javaengine.ID))
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := PageRank(ctx, edges, PageRankConfig{Iterations: 8}, rheem.OnPlatform(sparksim.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(rj) != len(rs) {
		t.Fatalf("java %d nodes, spark %d", len(rj), len(rs))
	}
	for n := range rj {
		if math.Abs(rj[n]-rs[n]) > 1e-9 {
			t.Fatalf("node %d: %v vs %v", n, rj[n], rs[n])
		}
	}
}

func TestConnectedComponentsTwoIslands(t *testing.T) {
	// {0,1,2} and {10,11} with no cross edges.
	edges := []data.Record{edge(0, 1), edge(1, 2), edge(10, 11)}
	comps, _, err := ConnectedComponents(testCtx(t), edges, 20)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0] != 0 || comps[1] != 0 || comps[2] != 0 {
		t.Errorf("island A labels: %v", comps)
	}
	if comps[10] != 10 || comps[11] != 10 {
		t.Errorf("island B labels: %v", comps)
	}
}

func TestConnectedComponentsChainNeedsPropagation(t *testing.T) {
	// A long chain exercises multi-iteration label propagation.
	var edges []data.Record
	for i := int64(0); i < 15; i++ {
		edges = append(edges, edge(i+1, i)) // reversed orientation on purpose
	}
	comps, _, err := ConnectedComponents(testCtx(t), edges, 30)
	if err != nil {
		t.Fatal(err)
	}
	for n, c := range comps {
		if c != 0 {
			t.Errorf("chain node %d labelled %d", n, c)
		}
	}
}

func TestDegrees(t *testing.T) {
	edges := []data.Record{edge(0, 1), edge(0, 2), edge(1, 2), edge(2, 0)}
	deg, _, err := Degrees(testCtx(t), edges)
	if err != nil {
		t.Fatal(err)
	}
	// [in, out]
	want := map[int64][2]int64{0: {1, 2}, 1: {1, 1}, 2: {2, 1}}
	for n, w := range want {
		if deg[n] != w {
			t.Errorf("node %d degrees %v, want %v", n, deg[n], w)
		}
	}
}

func TestEmptyEdgeListRejected(t *testing.T) {
	ctx := testCtx(t)
	if _, _, err := PageRank(ctx, nil, PageRankConfig{}); err == nil {
		t.Error("PageRank on empty graph accepted")
	}
	if _, _, err := ConnectedComponents(ctx, nil, 5); err == nil {
		t.Error("CC on empty graph accepted")
	}
}

func TestPageRankOnGeneratedGraphSkewed(t *testing.T) {
	// The generator biases in-links to low ids; average rank of the
	// lowest decile must beat the highest decile.
	edges := datagen.Graph(datagen.GraphConfig{Nodes: 100, Edges: 600, Seed: 2})
	ranks, _, err := PageRank(testCtx(t), edges, PageRankConfig{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	var low, high float64
	var nlow, nhigh int
	for n, r := range ranks {
		if n < 10 {
			low += r
			nlow++
		} else if n >= 90 {
			high += r
			nhigh++
		}
	}
	if nlow == 0 || nhigh == 0 {
		t.Skip("decile nodes missing from edge sample")
	}
	if low/float64(nlow) <= high/float64(nhigh) {
		t.Errorf("rank skew missing: low=%.5f high=%.5f", low/float64(nlow), high/float64(nhigh))
	}
}
