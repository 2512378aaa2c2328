package profile

import (
	"reflect"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/trace"
)

// TestObservationsAreDeterministic: one trace always folds into the same
// observations in the same order — the kinds of a span in the order its
// atom first shows them — so a calibrator fed the same runs learns the
// same factors.
func TestObservationsAreDeterministic(t *testing.T) {
	spans := []*trace.Span{
		{Kind: trace.KindAtom, Platform: "java", Metrics: engine.Metrics{Sim: 900}, ConvTime: 100,
			KindEst: trace.KindCosts{{Kind: "Source", NS: 100}, {Kind: "Map", NS: 200}, {Kind: "Filter", NS: 300}, {Kind: "Sink", NS: 200}}},
		{Kind: trace.KindAtom, Platform: "spark", Metrics: engine.Metrics{Sim: 50},
			KindEst: trace.KindCosts{{Kind: "Reduce", NS: 25}, {Kind: "Join", NS: 25}}},
	}
	audits := []trace.CardAudit{
		{OpKind: "Map", RawEstimated: 10, Actual: 20},
		{OpKind: "Filter", RawEstimated: 5, Actual: 1},
	}
	atoms, cards := Observations(spans, audits)
	var kinds []string
	for _, a := range atoms {
		kinds = append(kinds, a.Kind)
	}
	if want := []string{"Source", "Map", "Filter", "Sink", "Reduce", "Join"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("observations by kind %v, want %v", kinds, want)
	}
	if a := atoms[1]; a.Estimated != 200 || a.Actual != 200 {
		t.Errorf("Map observation %+v: the atom's 800 ns measured over an 800 ns estimate gives Map its own 200", a)
	}
	for i := 0; i < 50; i++ {
		a, c := Observations(spans, audits)
		if !reflect.DeepEqual(a, atoms) || !reflect.DeepEqual(c, cards) {
			t.Fatalf("call %d returned %v %v, the first %v %v", i+2, a, c, atoms, cards)
		}
	}
}
