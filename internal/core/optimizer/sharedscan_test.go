package optimizer

import (
	"testing"

	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func TestSharedScanMergesDeclaredSources(t *testing.T) {
	src := plan.Collection([]data.Record{data.NewRecord(data.Int(1))})
	pp := physOf(t, func(b *plan.Builder) {
		l := b.Source("l", src)
		l.SetScanKey("d")
		r := b.Source("r", src)
		r.SetScanKey("d")
		j := b.Cartesian(l, r)
		b.Collect(j)
	})
	changed, err := sharedScan(pp)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("shared scan did not fire on shared-key sources")
	}
	sources := 0
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			sources++
		}
	}
	if sources != 1 {
		t.Errorf("%d sources remain", sources)
	}
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	// The cartesian now reads the shared scan on both inputs.
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindCartesian {
			if op.Inputs[0] != op.Inputs[1] {
				t.Error("cartesian inputs not shared")
			}
		}
	}
	// Idempotent.
	if changed, _ := sharedScan(pp); changed {
		t.Error("shared scan fired twice")
	}
}

func TestSharedScanIsStrictlyOptIn(t *testing.T) {
	// Two sources over the same data WITHOUT ScanKeys must never be
	// merged: Go cannot prove closure equivalence, and merging distinct
	// collections (this exact bug broke PageRank's edges-vs-teleport
	// sources during development) silently corrupts results.
	recs := []data.Record{data.NewRecord(data.Int(1))}
	src := plan.Collection(recs)
	pp := physOf(t, func(b *plan.Builder) {
		l := b.Source("l", src) // same func value, no keys
		r := b.Source("r", src)
		j := b.Cartesian(l, r)
		b.Collect(j)
	})
	if changed, _ := sharedScan(pp); changed {
		t.Error("shared scan merged unkeyed sources")
	}
	// Different keys must not merge either.
	pp2 := physOf(t, func(b *plan.Builder) {
		l := b.Source("l", plan.Collection(recs))
		l.SetScanKey("a")
		r := b.Source("r", plan.Collection(recs))
		r.SetScanKey("b")
		b.Collect(b.Cartesian(l, r))
	})
	if changed, _ := sharedScan(pp2); changed {
		t.Error("shared scan merged differently-keyed sources")
	}
}

func TestSharedScanEndToEndCorrect(t *testing.T) {
	// A self-cartesian through a shared scan must still produce n²
	// pairs after the merge.
	reg := fullRegistry(t)
	recs := []data.Record{
		data.NewRecord(data.Int(1)), data.NewRecord(data.Int(2)), data.NewRecord(data.Int(3)),
	}
	src := plan.Collection(recs)
	pp := physOf(t, func(b *plan.Builder) {
		l := b.Source("l", src)
		l.CardHint = 3
		l.SetScanKey("d")
		r := b.Source("r", src)
		r.CardHint = 3
		r.SetScanKey("d")
		b.Collect(b.Cartesian(l, r))
	})
	ep, err := Optimize(pp, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimize runs the shared scan in its rewrite phase.
	sources := 0
	for _, op := range ep.Physical.Ops {
		if op.Kind() == plan.KindSource {
			sources++
		}
	}
	if sources != 1 {
		t.Errorf("%d sources after Optimize", sources)
	}
}
