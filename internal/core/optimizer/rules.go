package optimizer

import (
	"fmt"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// maxPasses bounds the rewrite phase's fixpoint.
const maxPasses = 32

// applyRules is the rewrite phase: shared scan, then filter push-down,
// pass after pass until neither changes the plan (at most maxPasses),
// then the same inside every loop body. Each rewrite preserves the
// plan's semantics.
func applyRules(p *physical.Plan) error {
	for pass := 0; pass < maxPasses; pass++ {
		scanned, err := sharedScan(p)
		if err != nil {
			return fmt.Errorf("optimizer: shared scan: %w", err)
		}
		pushed, err := pushFilterBeforeSort(p)
		if err != nil {
			return fmt.Errorf("optimizer: filter push-down: %w", err)
		}
		if !scanned && !pushed {
			// Recurse into loop bodies once the top level is stable.
			for _, op := range p.Ops {
				if op.Body != nil {
					if err := applyRules(op.Body); err != nil {
						return err
					}
				}
			}
			return p.Validate()
		}
	}
	return fmt.Errorf("optimizer: rewrites did not reach a fixpoint in %d passes", maxPasses)
}

// pushFilterBeforeSort swaps one Sort→Filter into Filter→Sort and
// reports whether it did: filtering a sorted stream and sorting a
// filtered stream produce the same output, but the latter sorts fewer
// records.
func pushFilterBeforeSort(p *physical.Plan) (bool, error) {
	var consumers map[int][]*physical.Operator // built at the first Sort→Filter pair
	for _, op := range p.Ops {
		if op.Kind() != plan.KindFilter {
			continue
		}
		sortOp := op.Inputs[0]
		if sortOp.Kind() != plan.KindSort {
			continue
		}
		if consumers == nil {
			consumers = p.Consumers()
		}
		if len(consumers[sortOp.ID]) != 1 {
			continue
		}
		// Rewire: source → filter → sort → (filter's consumers).
		src := sortOp.Inputs[0]
		op.ReplaceInput(sortOp, src)
		sortOp.ReplaceInput(src, op)
		for _, c := range consumers[op.ID] {
			c.ReplaceInput(op, sortOp)
		}
		if p.SinkOp == op {
			p.SinkOp = sortOp
		}
		return true, p.Normalize()
	}
	return false, nil
}
