package storage

import (
	"testing"

	"rheem/internal/data"
)

func TestTransformationPlanString(t *testing.T) {
	var nilPlan *TransformationPlan
	if nilPlan.String() != "identity" {
		t.Error("nil plan string")
	}
	p := &TransformationPlan{Steps: []Transform{Project("a"), SortBy("a")}}
	if p.String() == "" || p.String() == "identity" {
		t.Errorf("plan string = %q", p.String())
	}
	// nil plan Run is identity.
	s, recs, err := nilPlan.Run(nil, []data.Record{data.NewRecord(data.Str("x"))})
	if err != nil || s != nil || len(recs) != 1 {
		t.Error("nil plan Run not identity")
	}
}
