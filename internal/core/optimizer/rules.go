package optimizer

import (
	"fmt"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Rule is a pluggable physical-plan rewrite. Rules are applied to a
// fixpoint (bounded), and must preserve plan semantics. They are the
// paper's "rules ... as plugins" (§4.2): registering a new rule does
// not touch the optimizer core.
type Rule interface {
	// Name identifies the rule in diagnostics.
	Name() string
	// Apply attempts one rewrite, reporting whether it changed the
	// plan. The optimizer re-invokes rules until none fires.
	Apply(p *physical.Plan) (bool, error)
}

// DefaultRules returns the built-in rewrite set.
func DefaultRules() []Rule {
	return []Rule{SharedScan{}, FuseFilters{}, PushFilterBeforeSort{}}
}

// applyRules drives rules to a bounded fixpoint.
func applyRules(p *physical.Plan, rules []Rule) error {
	const maxPasses = 32
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, r := range rules {
			ch, err := r.Apply(p)
			if err != nil {
				return fmt.Errorf("optimizer: rule %s: %w", r.Name(), err)
			}
			changed = changed || ch
		}
		if !changed {
			// Recurse into loop bodies once the top level is stable.
			for _, op := range p.Ops {
				if op.Body != nil {
					if err := applyRules(op.Body, rules); err != nil {
						return err
					}
				}
			}
			return p.Validate()
		}
	}
	return fmt.Errorf("optimizer: rules did not reach a fixpoint in %d passes", 32)
}

// FuseFilters merges a Filter whose single input is another Filter with
// no other consumers into one conjunctive Filter, halving per-record
// dispatch overhead. A filter carrying a column predicate is left alone:
// the closure would erase the hint, and where hints are honoured
// consecutive hinted filters are one pass over one selection vector.
type FuseFilters struct{}

// Name implements Rule.
func (FuseFilters) Name() string { return "fuse-filters" }

// Apply implements Rule.
func (FuseFilters) Apply(p *physical.Plan) (bool, error) {
	var consumers map[int][]*physical.Operator // built at the first Filter→Filter pair
	for _, op := range p.Ops {
		if op.Kind() != plan.KindFilter {
			continue
		}
		in := op.Inputs[0]
		if in.Kind() != plan.KindFilter || in.Logical.ColPred() != nil || op.Logical.ColPred() != nil {
			continue
		}
		if consumers == nil {
			consumers = p.Consumers()
		}
		if len(consumers[in.ID]) != 1 {
			continue
		}
		first, second := in.Logical.Filter(), op.Logical.Filter()
		fused := plan.NewSynthetic(plan.KindFilter, "FusedFilter", plan.FilterFunc(func(r data.Record) (bool, error) {
			ok, err := first(r)
			if err != nil || !ok {
				return false, err
			}
			return second(r)
		}))
		// Combined selectivity.
		s1, s2 := in.Logical.Selectivity, op.Logical.Selectivity
		if s1 <= 0 {
			s1 = 0.5
		}
		if s2 <= 0 {
			s2 = 0.5
		}
		fused.Selectivity = s1 * s2
		merged := p.NewEnhancer(fused, in.Inputs[0])
		for _, c := range consumers[op.ID] {
			c.ReplaceInput(op, merged)
		}
		if p.SinkOp == op {
			p.SinkOp = merged
		}
		removeOps(p, op, in)
		return true, p.Normalize()
	}
	return false, nil
}

// PushFilterBeforeSort swaps Sort→Filter into Filter→Sort: filtering a
// sorted stream and sorting a filtered stream produce the same output,
// but the latter sorts fewer records.
type PushFilterBeforeSort struct{}

// Name implements Rule.
func (PushFilterBeforeSort) Name() string { return "push-filter-before-sort" }

// Apply implements Rule.
func (PushFilterBeforeSort) Apply(p *physical.Plan) (bool, error) {
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

// removeOps deletes operators from the plan's op list (their wiring
// must already be bypassed).
func removeOps(p *physical.Plan, victims ...*physical.Operator) {
	dead := make(map[int]bool, len(victims))
	for _, v := range victims {
		dead[v.ID] = true
	}
	kept := p.Ops[:0]
	for _, op := range p.Ops {
		if !dead[op.ID] {
			kept = append(kept, op)
		}
	}
	p.Ops = kept
}
