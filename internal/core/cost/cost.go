// Package cost implements the pluggable cost machinery of RHEEM's
// multi-platform task optimizer (paper §4.2). The paper requires that
// "rules and cost models [be] plugins and not hard-coded as in
// traditional database optimizers": here a cost model is a plain
// function value attached to a declarative operator mapping, and the
// optimizer only ever adds up the Cost vectors those plugins return —
// it knows nothing about any platform's internals.
package cost

import (
	"fmt"
	"math"
	"time"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// Cost is the optimizer's currency: estimated time split by resource.
// Startup captures fixed per-job charges (e.g. Spark job submission),
// which is what makes small inputs favour the single-node engine —
// the effect Figure 2 of the paper measures.
type Cost struct {
	CPU     time.Duration
	IO      time.Duration
	Net     time.Duration
	Startup time.Duration
}

// Plus returns the component-wise sum.
func (c Cost) Plus(o Cost) Cost {
	return Cost{
		CPU:     c.CPU + o.CPU,
		IO:      c.IO + o.IO,
		Net:     c.Net + o.Net,
		Startup: c.Startup + o.Startup,
	}
}

// Times scales every component.
func (c Cost) Times(k float64) Cost {
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
	return Cost{CPU: scale(c.CPU), IO: scale(c.IO), Net: scale(c.Net), Startup: scale(c.Startup)}
}

// Total collapses the vector to a single optimization objective.
func (c Cost) Total() time.Duration { return c.CPU + c.IO + c.Net + c.Startup }

// String renders the cost compactly.
func (c Cost) String() string {
	return fmt.Sprintf("total=%v (cpu=%v io=%v net=%v startup=%v)",
		c.Total(), c.CPU, c.IO, c.Net, c.Startup)
}

// Model is the plugin signature a mapping attaches: estimate the cost
// of running op on the mapping's platform, given estimated input and
// output cardinalities. Models are pure functions of their arguments
// so plans can be costed without touching any platform.
type Model func(op *physical.Operator, inCards []int64, outCard int64) Cost

// ConstModel returns a Model charging a fixed cost regardless of
// cardinalities — useful in tests and for trivial operators.
func ConstModel(c Cost) Model {
	return func(*physical.Operator, []int64, int64) Cost { return c }
}

// PerRecord returns a Model charging startup plus a CPU cost per input
// and output record — the workhorse shape for single-node operators.
func PerRecord(startup time.Duration, perIn, perOut time.Duration) Model {
	return func(_ *physical.Operator, inCards []int64, outCard int64) Cost {
		var in int64
		for _, c := range inCards {
			in += c
		}
		return Cost{
			Startup: startup,
			CPU:     time.Duration(in)*perIn + time.Duration(outCard)*perOut,
		}
	}
}

// Estimates holds per-operator cardinality estimates for one physical
// plan tree, plus average record width used to turn cardinalities into
// bytes for movement costing.
type Estimates struct {
	// Cards is indexed by physical operator ID, as long as the tree's
	// physical.Plan.IDBound.
	Cards    []int64
	RecBytes int64 // assumed average record footprint

	overrides map[int]int64
	cal       *Calibrator
}

// Bytes estimates the byte volume flowing out of op.
func (e *Estimates) Bytes(opID int) int64 {
	return e.Cards[opID] * e.RecBytes
}

// DefaultSourceCard is assumed when a source provides no CardHint.
const DefaultSourceCard = 1000

// DefaultRecBytes is the assumed record footprint when no hint exists.
const DefaultRecBytes = 64

// Estimate walks the physical plan in topological order and derives a
// cardinality estimate per operator from source hints and standard
// selectivity rules. Loop bodies are estimated with the loop input
// bound to the loop operator's input cardinality.
//
// Where an observed cardinality is known (the executor's audit),
// overrides replaces the rule-derived estimate, and downstream
// operators are estimated from the corrected value — the
// statistics-feedback half of adaptive re-optimization. A non-nil cal
// scales each rule-derived cardinality by the calibrator's learned
// per-kind correction before it flows downstream; overrides are applied
// after, and never scaled — they are measurements, not estimates.
func Estimate(p *physical.Plan, overrides map[int]int64, cal *Calibrator) *Estimates {
	est := &Estimates{Cards: make([]int64, p.IDBound()), RecBytes: DefaultRecBytes}
	est.overrides = overrides
	est.cal = cal
	estimateInto(p, est, -1)
	return est
}

// estimateInto fills est.Cards for plan p; loopInputCard is the
// cardinality bound to a body plan's LoopInput (-1 for top level).
func estimateInto(p *physical.Plan, est *Estimates, loopInputCard int64) {
	for _, op := range p.Ops {
		lop := op.Logical
		var buf [4]int64 // input cardinalities; on the stack up to four inputs
		in := buf[:0]
		for _, pin := range op.Inputs {
			in = append(in, est.Cards[pin.ID])
		}
		var card int64
		switch lop.Kind() {
		case plan.KindSource:
			card = lop.CardHint
			if card <= 0 {
				card = DefaultSourceCard
			}
		case plan.KindLoopInput:
			card = loopInputCard
			if card < 0 {
				card = DefaultSourceCard
			}
		case plan.KindMap, plan.KindSort, plan.KindSink:
			card = in[0]
		case plan.KindFlatMap:
			card = int64(float64(in[0]) * 2)
		case plan.KindFilter:
			sel := lop.Selectivity
			if sel <= 0 {
				sel = 0.5
			}
			card = int64(float64(in[0]) * sel)
		case plan.KindGroupBy, plan.KindReduceByKey, plan.KindDistinct:
			card = distinctEstimate(in[0])
		case plan.KindReduce, plan.KindCount:
			card = 1
		case plan.KindUnion:
			card = in[0] + in[1]
		case plan.KindJoin:
			// Foreign-key-ish default: the larger side survives.
			card = max64(in[0], in[1])
		case plan.KindThetaJoin:
			sel := lop.Selectivity
			if sel <= 0 {
				sel = 0.25
			}
			card = int64(float64(in[0]) * float64(in[1]) * sel)
		case plan.KindCartesian:
			card = in[0] * in[1]
		case plan.KindSample:
			card = min64(int64(lop.N()), in[0])
		case plan.KindRepeat, plan.KindDoWhile:
			estimateInto(op.Body, est, in[0])
			card = est.Cards[op.Body.SinkOp.ID]
		default:
			card = in[0]
		}
		if card < 0 {
			card = 0
		}
		// Calibration scales the rule-derived estimate only; sources keep
		// their hints (their observed ratio is ~1 anyway) and overrides
		// below stay untouched — they are measurements.
		if est.cal != nil && card > 0 {
			switch lop.Kind() {
			case plan.KindSource, plan.KindLoopInput, plan.KindRepeat, plan.KindDoWhile:
				// Loop cards come from their body's (already calibrated)
				// sink estimate; scaling again would double-correct.
			default:
				card = int64(float64(card) * est.cal.CardFactor(lop.Kind().String()))
			}
		}
		if ov, ok := est.overrides[op.ID]; ok {
			card = ov
		}
		est.Cards[op.ID] = card
	}
}

func distinctEstimate(in int64) int64 {
	if in <= 1 {
		return in
	}
	// Without statistics assume √n distinct keys, the classic guess.
	return int64(math.Sqrt(float64(in)))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
