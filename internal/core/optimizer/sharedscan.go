package optimizer

import (
	"slices"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// sharedScan merges one Source that declares the same ScanKey as an
// earlier one into that scan and reports whether it did — the paper's
// example of a "traditional physical optimization" the multi-platform
// optimizer should still apply (§4.2: "shared scans and optimized data
// access paths"). Self-joins built by the cleaning application read the
// same collection twice; after this rewrite the data is scanned (and,
// on the Spark simulator, parallelized) once.
//
// Sharing is strictly opt-in through plan.Operator.ScanKey: Go cannot
// portably establish that two source closures capture the same data
// (function values are not comparable, and reflect exposes only the
// shared code pointer), so only sources whose author declared them
// identical are merged.
func sharedScan(p *physical.Plan) (bool, error) {
	byKey := map[string]*physical.Operator{}
	for _, op := range p.Ops {
		if op.Kind() != plan.KindSource || op.Logical.ScanKey() == "" {
			continue
		}
		key := op.Logical.ScanKey()
		first, seen := byKey[key]
		if !seen {
			byKey[key] = op
			continue
		}
		// Rewire every consumer of the duplicate to the first scan.
		for _, other := range p.Ops {
			other.ReplaceInput(op, first)
		}
		if p.SinkOp == op {
			p.SinkOp = first
		}
		p.Ops = slices.DeleteFunc(p.Ops, func(o *physical.Operator) bool { return o == op })
		return true, p.Normalize()
	}
	return false, nil
}
