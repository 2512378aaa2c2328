package cleaning

import (
	"fmt"

	"rheem"
	"rheem/internal/data"
)

// CleanResult summarises an iterative detect→repair run.
type CleanResult struct {
	Rounds            int
	InitialViolations int
	FinalViolations   int
	CellsChanged      int
}

// Clean iterates detection and repair to a fixpoint: detect, repair,
// re-detect, until no violations remain, the violation count stops
// improving, or maxRounds is reached. Repairing one rule can surface
// or create violations of another (a repaired city can collide with a
// state rule, a raised rate can violate against a higher earner), so a
// single repair pass is not enough in general — this is the cleaning
// loop BigDansing systems run in practice.
func Clean(ctx *rheem.Context, dataset []data.Record, rules []Rule, idField, maxRounds int, opts ...rheem.RunOption) ([]data.Record, CleanResult, error) {
	if maxRounds <= 0 {
		maxRounds = 5
	}
	det, err := NewDetector(ctx, rules...)
	if err != nil {
		return nil, CleanResult{}, err
	}
	cur := dataset
	res := CleanResult{}
	prev := -1
	for round := 0; round < maxRounds; round++ {
		violations, _, err := det.Detect(cur, opts...)
		if err != nil {
			return nil, res, fmt.Errorf("cleaning: round %d: %w", round, err)
		}
		if round == 0 {
			res.InitialViolations = len(violations)
		}
		res.FinalViolations = len(violations)
		if len(violations) == 0 {
			return cur, res, nil
		}
		if prev >= 0 && len(violations) >= prev {
			// No progress: stop rather than oscillate.
			return cur, res, nil
		}
		prev = len(violations)
		repaired, stats, err := Repair(cur, violations, rules, idField)
		if err != nil {
			return nil, res, fmt.Errorf("cleaning: round %d repair: %w", round, err)
		}
		res.CellsChanged += stats.CellsChanged
		res.Rounds++
		cur = repaired
	}
	// Report the violation count after the final repair.
	violations, _, err := det.Detect(cur, opts...)
	if err != nil {
		return nil, res, err
	}
	res.FinalViolations = len(violations)
	return cur, res, nil
}
