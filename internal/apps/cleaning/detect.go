package cleaning

import (
	"fmt"

	"rheem"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Detector runs rules over datasets through RHEEM.
type Detector struct {
	ctx   *rheem.Context
	rules []Rule
}

// NewDetector wires rules to a context.
func NewDetector(ctx *rheem.Context, rules ...Rule) (*Detector, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("cleaning: no rules")
	}
	return &Detector{ctx: ctx, rules: rules}, nil
}

// violation record layout produced by the detection dataflows:
// (rule Str, left Int, right Int).
func violationRecord(rule string, left, right int64) data.Record {
	return data.NewRecord(data.Str(rule), data.Int(left), data.Int(right))
}

func decodeViolations(recs []data.Record) []Violation {
	out := make([]Violation, len(recs))
	for i, r := range recs {
		out[i] = Violation{Rule: r.Field(0).Str(), Left: r.Field(1).Int(), Right: r.Field(2).Int()}
	}
	return out
}

// Detect runs every rule's detection dataflow and returns all
// violations. Equality rules use the blocked five-operator pipeline;
// rules with declarative inequality conditions use a self theta-join
// so the optimizer can pick IEJoin. Reports are merged across rules:
// metrics, failovers and mismatches add up, while Plan, Trace and RunID
// are the last rule's run, the one Telemetry's snapshot was taken after.
func (d *Detector) Detect(dataset []data.Record, opts ...rheem.RunOption) ([]Violation, *rheem.Report, error) {
	var all []Violation
	merged := &rheem.Report{}
	for _, rule := range d.rules {
		var (
			recs []data.Record
			rep  *rheem.Report
			err  error
		)
		if len(rule.Conditions()) > 0 {
			recs, rep, err = d.detectThetaJoin(rule, dataset, opts...)
		} else {
			recs, rep, err = d.detectBlocked(rule, dataset, opts...)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("cleaning: rule %s: %w", rule.Name(), err)
		}
		all = append(all, decodeViolations(recs)...)
		if rep != nil {
			merged.Metrics.Add(rep.Metrics)
			merged.Plan = rep.Plan
			merged.RunID = rep.RunID
			merged.Failovers += rep.Failovers
			merged.PlatformHealth = rep.PlatformHealth
			merged.Reoptimized = merged.Reoptimized || rep.Reoptimized
			merged.Mismatches = append(merged.Mismatches, rep.Mismatches...)
			if rep.Trace != nil {
				merged.Trace = rep.Trace
			}
			// The telemetry snapshot is cumulative across the context's
			// runs, so the last rule's snapshot covers them all.
			if rep.Telemetry != nil {
				merged.Telemetry = rep.Telemetry
			}
		}
	}
	return all, merged, nil
}

// detectBlocked is the five-operator pipeline:
//
//	Source → FlatMap(Scope) → GroupBy(Block; Iterate+Detect) → violations
//
// Iterate enumerates ordered pairs within the block; Detect flags them.
func (d *Detector) detectBlocked(rule Rule, dataset []data.Record, opts ...rheem.RunOption) ([]data.Record, *rheem.Report, error) {
	job := d.ctx.NewJob("detect-" + rule.Name())
	scoped := job.ReadCollection("data", dataset).
		FlatMap(func(r data.Record) ([]data.Record, error) {
			s, ok := rule.Scope(r)
			if !ok {
				return nil, nil
			}
			return []data.Record{s}, nil
		})
	violations := scoped.GroupBy(
		func(r data.Record) (data.Value, error) { return rule.Block(r), nil },
		func(_ data.Value, block []data.Record) ([]data.Record, error) {
			var out []data.Record
			// Iterate: unordered candidate pairs; Detect both
			// orientations so asymmetric rules see each pair once per
			// direction.
			for i := 0; i < len(block); i++ {
				for j := i + 1; j < len(block); j++ {
					if rule.Detect(block[i], block[j]) {
						out = append(out, violationRecord(rule.Name(),
							block[i].Field(0).Int(), block[j].Field(0).Int()))
					} else if rule.Detect(block[j], block[i]) {
						out = append(out, violationRecord(rule.Name(),
							block[j].Field(0).Int(), block[i].Field(0).Int()))
					}
				}
			}
			return out, nil
		})
	return violations.Collect(opts...)
}

// detectThetaJoin lowers an inequality rule onto a self theta-join
// with declarative conditions. The optimizer chooses between IEJoin
// and a nested loop; forcing the nested loop (for the E4 baseline) is
// done by clearing the rule's conditions via a UDFRule wrapper.
func (d *Detector) detectThetaJoin(rule Rule, dataset []data.Record, opts ...rheem.RunOption) ([]data.Record, *rheem.Report, error) {
	job := d.ctx.NewJob("detect-ie-" + rule.Name())
	scope := func(r data.Record) ([]data.Record, error) {
		s, ok := rule.Scope(r)
		if !ok {
			return nil, nil
		}
		return []data.Record{s}, nil
	}
	// Both sides scan the same dataset: the shared ScanKey lets the
	// optimizer's shared-scan rule collapse the self-join's two reads
	// into a single scan.
	src := plan.Collection(dataset)
	left := job.ReadSource("scan-l", src, int64(len(dataset))).ShareScan("dataset").FlatMap(scope)
	right := job.ReadSource("scan-r", src, int64(len(dataset))).ShareScan("dataset").FlatMap(scope)
	scopedLen := 0
	if len(dataset) > 0 {
		if s, ok := rule.Scope(dataset[0]); ok {
			scopedLen = s.Len()
		}
	}
	// Residual: exclude self-pairs (same tuple id).
	residual := func(a, b data.Record) (bool, error) {
		return a.Field(0).Int() != b.Field(0).Int(), nil
	}
	joined := left.ThetaJoin(right, residual, rule.Conditions()...)
	violations := joined.Map(func(r data.Record) (data.Record, error) {
		// Joined record = Concat(scopedLeft, scopedRight).
		return violationRecord(rule.Name(), r.Field(0).Int(), r.Field(scopedLen).Int()), nil
	})
	return violations.Collect(opts...)
}

// CountByRule tallies violations per rule name.
func CountByRule(vs []Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Rule]++
	}
	return out
}

// ViolatingTuples returns the distinct tuple ids involved in
// violations.
func ViolatingTuples(vs []Violation) map[int64]bool {
	out := map[int64]bool{}
	for _, v := range vs {
		out[v.Left] = true
		if v.Right >= 0 {
			out[v.Right] = true
		}
	}
	return out
}
