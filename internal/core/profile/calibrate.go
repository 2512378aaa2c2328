// Calibration feed: the adapter from a completed run's trace (spans
// with per-kind raw cost attribution, estimate-vs-actual cardinality
// audits) to the neutral observation types cost.Calibrator folds. It
// lives here rather than in cost because cost sits below trace in the
// import order — the calibrator stays a leaf the optimizer can import.
package profile

import (
	"time"

	"rheem/internal/core/cost"
	"rheem/internal/core/trace"
)

// Observations converts a run's finished spans and audit records into
// calibrator observations.
//
// Time attribution: a KindAtom span's measured compute time is
// Metrics.Sim minus the input-conversion share (ConvTime), and its
// KindEst says how the optimizer split the RAW estimate across the
// atom's operator kinds, in a fixed order: one trace, one sequence. The measured time is apportioned over the
// kinds by their estimated share — within one atom there is no finer
// measurement — so each kind's observation keeps its own estimate but
// sees the atom-level actual/estimated ratio. Failed spans, loop spans
// (their body atoms report themselves) and spans without attribution
// are skipped.
//
// Cardinalities: audits with a positive raw estimate and actual feed
// per-kind card observations. Zero actuals are dropped here and would
// be dropped again by Fold — an empty output is no evidence about the
// estimator's scale.
func Observations(spans []*trace.Span, audits []trace.CardAudit) ([]cost.AtomObs, []cost.CardObs) {
	var atoms []cost.AtomObs
	for _, sp := range spans {
		if sp.Kind != trace.KindAtom || sp.Failed() || len(sp.KindEst) == 0 {
			continue
		}
		actual := sp.Metrics.Sim - sp.ConvTime
		if actual <= 0 {
			continue
		}
		var totalEst int64
		for _, k := range sp.KindEst {
			if k.NS > 0 {
				totalEst += k.NS
			}
		}
		if totalEst <= 0 {
			continue
		}
		ratio := float64(actual) / float64(totalEst)
		for _, k := range sp.KindEst {
			if k.NS <= 0 {
				continue
			}
			atoms = append(atoms, cost.AtomObs{
				Kind:      k.Kind,
				Platform:  string(sp.Platform),
				Estimated: time.Duration(k.NS),
				Actual:    time.Duration(float64(k.NS) * ratio),
			})
		}
	}
	var cards []cost.CardObs
	for _, a := range audits {
		if a.OpKind == "" || a.RawEstimated <= 0 || a.Actual <= 0 {
			continue
		}
		cards = append(cards, cost.CardObs{
			Kind:      a.OpKind,
			Estimated: a.RawEstimated,
			Actual:    a.Actual,
		})
	}
	return atoms, cards
}
