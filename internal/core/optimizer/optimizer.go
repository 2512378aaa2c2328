// Package optimizer implements RHEEM's multi-platform task optimizer
// (paper §4.2). Given a physical plan and the engine registry it
//
//  1. applies pluggable rewrite rules (rules are plugins, "not
//     hard-coded as in traditional database optimizers");
//  2. estimates cardinalities (package cost);
//  3. jointly chooses, per operator, an algorithm and an execution
//     platform by dynamic programming over (operator, platform)
//     states, where edges between states on different platforms are
//     charged the channel-conversion cost — the paper's inter-platform
//     cost model;
//  4. divides the plan into task atoms ("the units of execution ...
//     executed on a single data processing platform") such that data
//     crosses platforms only at atom boundaries;
//  5. recursively optimizes loop bodies, whose cost is multiplied by
//     the expected iteration count.
//
// The result is an ExecutionPlan the executor can run, with the
// estimated cost attached so callers (and the E6 experiment) can audit
// the optimizer's predictions.
package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// Options steers an optimization run.
type Options struct {
	// FixedPlatform pins every operator to one platform, used by the
	// single-platform baselines of the experiments. Empty means free
	// choice.
	FixedPlatform engine.PlatformID
	// DisableRules skips the rewrite phase (shared scan, filter
	// push-down) entirely.
	DisableRules bool
	// Calibration supplies learned per-(kind, platform) cost correction
	// factors and per-kind cardinality corrections folded from completed
	// runs (cost.Calibrator). The DP multiplies each candidate's model
	// cost by its factor, so platform choices improve with traffic. Nil
	// (or a cold calibrator) leaves every cost untouched. Because
	// failover re-planning runs through the same DP, it inherits
	// calibrated costs automatically.
	Calibration *cost.Calibrator

	// The remaining options are set by callers and, on top of theirs,
	// by the executor when it re-plans a partially executed job with
	// observed statistics:
	//
	// CardOverrides replaces rule-derived cardinality estimates with
	// observed values for the given physical operator IDs.
	CardOverrides map[int]int64
	// ForcedAssignments pins individual operators to platforms
	// (already-executed operators keep their original assignment).
	ForcedAssignments map[int]engine.PlatformID
	// ExcludePlatforms removes platforms from consideration for every
	// not-yet-executed operator; Frozen operators keep their original
	// (forced) assignment even on an excluded platform, since they will
	// never execute again. The executor's cross-platform failover
	// re-plans with the quarantined platforms excluded.
	ExcludePlatforms map[engine.PlatformID]bool
	// Frozen marks already-executed operators: the atom splitter never
	// mixes frozen and unfrozen operators in one atom, so the executor
	// can skip fully-frozen atoms whose outputs it already holds.
	Frozen map[int]bool
}

// ExecutionPlan is the optimizer's output: the (possibly rewritten)
// physical plan, the per-operator platform assignment, the task atoms
// in a topologically valid execution order, nested loop-body plans,
// and the predicted cost.
//
// Assignment, OpCosts and RawOpCosts are indexed by operator ID and
// Physical.IDBound() long. An ID that is not an operator of this plan —
// a loop body's operator at the top level, the enclosing plan's in a
// body, an operator a rewrite rule removed — holds the zero value.
type ExecutionPlan struct {
	Physical *physical.Plan
	// Assignment is each operator's platform; "" outside this plan.
	Assignment []engine.PlatformID
	Atoms      []*engine.TaskAtom
	LoopBodies map[int]*ExecutionPlan // keyed by loop physical op ID
	Estimated  cost.Cost
	Estimates  *cost.Estimates
	// OpCosts is the estimated cost of each operator under its chosen
	// platform and algorithm (loops carry their whole body's cost,
	// multiplied by the expected iterations). The executor's audit
	// trail compares these predictions against measured runtimes.
	OpCosts []cost.Cost
	// RawOpCosts / RawEstimates / RawEstimated are the same predictions
	// with calibration stripped: raw model costs on raw rule-derived
	// cardinalities. The executor records these in its spans and audits
	// so the calibrator always learns against the fixed, uncalibrated
	// model — learning against already-corrected estimates would feed
	// the correction back into itself. Without calibration they alias
	// the calibrated fields (RawOpCosts is OpCosts, the same slice).
	RawOpCosts   []cost.Cost
	RawEstimates *cost.Estimates
	RawEstimated cost.Cost
	// Options is what Optimize was called with (maps shared, not
	// copied): the caller's pins and exclusions, which every mid-run
	// re-plan starts from. Loop-body plans leave it zero.
	Options Options
}

// String renders the execution plan as its atom sequence.
func (ep *ExecutionPlan) String() string {
	s := fmt.Sprintf("execution plan %q (est %v):\n", ep.Physical.Name, ep.Estimated.Total())
	for _, a := range ep.Atoms {
		s += "  " + a.String() + "\n"
		if a.Kind == engine.AtomLoop {
			if body := ep.LoopBodies[a.LoopOp.ID]; body != nil {
				for _, line := range strings.Split(strings.TrimRight(body.String(), "\n"), "\n") {
					s += "    " + line + "\n"
				}
			}
		}
	}
	return s
}

// Optimize produces an execution plan for p over the registered
// platforms.
func Optimize(p *physical.Plan, reg *engine.Registry, opts Options) (*ExecutionPlan, error) {
	if !opts.DisableRules {
		if err := applyRules(p); err != nil {
			return nil, err
		}
	}
	est := cost.Estimate(p, opts.CardOverrides, opts.Calibration)
	rawEst := est
	if opts.Calibration != nil {
		rawEst = cost.Estimate(p, opts.CardOverrides, nil)
	}
	ep, err := optimizeWith(p, reg, opts, est, rawEst)
	if err != nil {
		return nil, err
	}
	ep.Options = opts
	return ep, nil
}

func optimizeWith(p *physical.Plan, reg *engine.Registry, opts Options, est, rawEst *cost.Estimates) (*ExecutionPlan, error) {
	ids := p.IDBound()
	ep := &ExecutionPlan{
		Physical:     p,
		Assignment:   make([]engine.PlatformID, ids),
		Estimates:    est,
		RawEstimates: rawEst,
		OpCosts:      make([]cost.Cost, ids),
	}
	// Uncalibrated, raw and calibrated costs are one computation: vectorCost
	// writes the same value into both, so one slice serves.
	ep.RawOpCosts = ep.OpCosts
	if opts.Calibration != nil {
		ep.RawOpCosts = make([]cost.Cost, ids)
	}
	// Optimize loop bodies first: a loop's cost and platform derive
	// from its body.
	for _, op := range p.Ops {
		switch op.Kind() {
		case plan.KindRepeat, plan.KindDoWhile:
			body, err := optimizeWith(op.Body, reg, opts, est, rawEst)
			if err != nil {
				return nil, fmt.Errorf("optimizer: loop body of %s: %w", op.Name(), err)
			}
			if ep.LoopBodies == nil {
				ep.LoopBodies = make(map[int]*ExecutionPlan)
			}
			ep.LoopBodies[op.ID] = body
		}
	}

	// Leased after the bodies' recursion: every plan level holds its own.
	s := scratches.Get()
	defer scratches.Put(s)
	s.positions(p)
	if err := assignPlatforms(p, s, reg, opts, ep); err != nil {
		return nil, err
	}
	atoms, err := splitAtoms(p, s, ep.Assignment, opts.Frozen)
	if err != nil {
		return nil, err
	}
	ep.Atoms = atoms
	return ep, nil
}

// scratch is what one plan level's DP and atom split work in and do not
// return. It is leased from a free list and every slice grows to the
// widest plan it served, so planning allocates only the ExecutionPlan,
// its per-ID slices, the estimates and the atoms.
type scratch struct {
	pos   []int32  // operator ID → position in p.Ops; -1: not in this plan
	ints  []int32  // the designated roots' marks, then every cell's input picks
	cells []choice // the DP table, [operator position × platform index]
	cards []int64  // the cost models' input cardinalities, calibrated and raw
	bits  []uint64 // splitAtoms' bit rows
}

// maxCells bounds the DP table a kept scratch keeps: one that served a
// wider plan is dropped.
const maxCells = 4096

// scratches is the free list of released scratches, at most four per P.
var scratches = engine.FreeList[scratch]{PerP: 4, Keep: func(s *scratch) bool { return cap(s.cells) <= maxCells }}

// positions maps operator IDs to positions in p.Ops (-1: not in this
// plan; IDs are shared across a plan tree) into s.pos. The DP's table
// and the atom splitter's sets are indexed by position.
func (s *scratch) positions(p *physical.Plan) {
	maxID := -1
	for _, op := range p.Ops {
		maxID = max(maxID, op.ID)
	}
	s.pos = engine.Grown(s.pos, maxID+1)
	for i := range s.pos {
		s.pos[i] = -1
	}
	for i, op := range p.Ops {
		s.pos[op.ID] = int32(i)
	}
}

// doWhileIterGuess is the iteration count assumed for a DoWhile loop
// without an iteration bound when costing.
const doWhileIterGuess = 10

// loopCosts prices a loop operator from its optimized body: the body's
// estimate — calibrated and raw — times the expected iteration count.
func loopCosts(op *physical.Operator, body *ExecutionPlan) (c, raw cost.Cost) {
	iters := op.Logical.Times()
	if op.Kind() == plan.KindDoWhile {
		iters = op.Logical.MaxIter()
		if iters <= 0 {
			iters = doWhileIterGuess
		}
	}
	return body.Estimated.Times(float64(iters)), body.RawEstimated.Times(float64(iters))
}

// choice is one DP cell: the best known way to have op's output
// materialised on a given platform. It is 16 bytes: what the cell's cost
// vector is, vectorCost recomputes for the chosen path alone.
type choice struct {
	total    time.Duration
	in       int32 // offset of the chosen platform (index) per input in dp.picks
	algo     uint8 // index into physical.Candidates(op)
	feasible bool
}

// designatedRoots marks, per weakly-connected component of the plan,
// the position of the zero-input operator with the smallest ID. The DP
// charges per-job startup once at the designated root
// instead of at every root, so an atom that happens to have several
// sources (a loop body reading both its LoopInput state and a broadcast
// dataset) is not charged one job submission per source. It works in
// scratch, 2·len(p.Ops) long, and returns its first half: 1 at a
// designated root's position, 0 elsewhere.
func designatedRoots(p *physical.Plan, pos []int32, scratch []int32) []int32 {
	n := len(p.Ops)
	parent, minRoot := scratch[:n], scratch[n:2*n] // union-find; component → its smallest-ID zero-input op
	find := func(x int32) int32 {
		for ; parent[x] != x; x = parent[x] {
			parent[x] = parent[parent[x]]
		}
		return x
	}
	for i := range parent {
		parent[i], minRoot[i] = int32(i), -1
	}
	for i, op := range p.Ops {
		for _, in := range op.Inputs {
			parent[find(int32(i))] = find(pos[in.ID])
		}
	}
	for i, op := range p.Ops {
		if len(op.Inputs) != 0 {
			continue
		}
		c := find(int32(i))
		if best := minRoot[c]; best < 0 || op.ID < p.Ops[best].ID {
			minRoot[c] = int32(i)
		}
	}
	out := parent // the union-find is done with it
	clear(out)
	for _, i := range minRoot {
		if i >= 0 {
			out[i] = 1
		}
	}
	return out
}

// dp is the state of one assignPlatforms run: a dense table of choices
// indexed [operator position × platform index], platforms in the
// registry's registration order.
type dp struct {
	reg       *engine.Registry
	est       *cost.Estimates
	platforms []engine.Platform
	pos       []int32
	cells     []choice
	picks     []int32 // every feasible cell's input picks, one run of len(op.Inputs) each
}

// row returns op's cells, one per platform.
func (d *dp) row(op *physical.Operator) []choice {
	i := int(d.pos[op.ID]) * len(d.platforms)
	return d.cells[i : i+len(d.platforms)]
}

// assignPlatforms runs the DP over (operator, platform) states and
// backtracks the cheapest assignment into ep.
//
// Ties are broken by registration order, first-cheapest wins: wherever
// the DP compares alternatives — producer platforms for an input,
// algorithms for a cell, platforms for the sink — it walks them in the
// order they were registered (or physical.Candidates lists them) and
// replaces the incumbent only on a strictly lower total. Platforms with
// identical costs (CloneMappings makes them) always yield one plan.
func assignPlatforms(p *physical.Plan, s *scratch, reg *engine.Registry, opts Options, ep *ExecutionPlan) error {
	pos := s.pos
	d := dp{reg: reg, est: ep.Estimates, platforms: reg.Platforms(), pos: pos}
	np := len(d.platforms)
	if np == 0 {
		return fmt.Errorf("optimizer: no platforms registered")
	}
	edges, maxIn := 0, 0
	for _, op := range p.Ops {
		edges += len(op.Inputs)
		maxIn = max(maxIn, len(op.Inputs))
		for _, in := range op.Inputs {
			if in.ID >= len(pos) || pos[in.ID] < 0 {
				return fmt.Errorf("optimizer: %s consumes %s, which is not in plan %q", op.Name(), in.Name(), p.Name)
			}
		}
	}
	// One backing array for the root marks and all cells' input picks,
	// one slice for the cost models' input cardinalities.
	s.ints = engine.Grown(s.ints, 2*len(p.Ops)+edges*np)
	s.cells, s.cards = engine.Grown(s.cells, len(p.Ops)*np), engine.Grown(s.cards, 2*maxIn)
	roots := designatedRoots(p, pos, s.ints)
	d.picks, d.cells = s.ints[2*len(p.Ops):], s.cells
	cards := s.cards
	next := int32(0) // the next cell's input picks in d.picks

	for _, op := range p.Ops {
		cells := d.row(op)
		nin := len(op.Inputs)

		// Loops: single pseudo-choice on the body's sink platform.
		if body := ep.LoopBodies[op.ID]; body != nil {
			pi := slices.IndexFunc(d.platforms, func(pl engine.Platform) bool {
				return pl.ID() == body.Assignment[op.Body.SinkOp.ID]
			})
			if pi < 0 {
				return fmt.Errorf("optimizer: loop body of %s sits on an unregistered platform", op.Name())
			}
			lc, _ := loopCosts(op, body)
			c := &cells[pi]
			*c = choice{total: lc.Total(), in: next, feasible: true} // algo 0: a loop's one candidate, Default
			next += int32(nin)
			for i, in := range op.Inputs {
				from, total, ok := d.cheapestInput(in, pi, op)
				if !ok {
					return fmt.Errorf("optimizer: no feasible platform chain into %s", op.Name())
				}
				d.picks[int(c.in)+i] = int32(from)
				c.total += total
			}
			continue
		}

		inCards := cards[:nin]
		for i, in := range op.Inputs {
			inCards[i] = d.est.Cards[in.ID]
		}
		outCard := d.est.Cards[op.ID]
		kind, kindName := op.Kind(), op.Kind().String()
		forced, isForced := opts.ForcedAssignments[op.ID]
		offered := false
		for pi, platform := range d.platforms {
			pl := platform.ID()
			if opts.FixedPlatform != "" && pl != opts.FixedPlatform {
				continue
			}
			if isForced && pl != forced {
				continue
			}
			if opts.ExcludePlatforms[pl] && !opts.Frozen[op.ID] {
				continue
			}
			// Input picks depend only on the consumer platform. The
			// per-job startup charge applies only when this operator
			// opens a new task atom on its platform: at the component's
			// designated root, and wherever an input arrives from
			// another platform. Within an atom, startup is paid once.
			inPlats := d.picks[next : int(next)+nin]
			var inTotal time.Duration
			newAtom := nin == 0 && roots[pos[op.ID]] != 0
			feasibleInputs := true
			for i, in := range op.Inputs {
				from, total, ok := d.cheapestInput(in, pi, op)
				if !ok {
					feasibleInputs = false
					break
				}
				inPlats[i] = int32(from)
				inTotal += total
				newAtom = newAtom || from != pi
			}
			if !feasibleInputs {
				continue
			}
			best := &cells[pi]
			for ai, algo := range physical.Candidates(op) {
				m, ok := reg.MappingFor(pl, kind, algo)
				if !ok {
					continue
				}
				oc := m.Cost(op, inCards, outCard)
				// Learned correction: scale the model's estimate by the
				// observed actual/estimated ratio for this (kind,
				// platform). CostFactor is 1 on a nil or cold calibrator.
				if f := opts.Calibration.CostFactor(kindName, string(pl)); f != 1 {
					oc = oc.Times(f)
				}
				total := oc.CPU + oc.IO + oc.Net + inTotal
				if newAtom {
					total += oc.Startup
				}
				if !best.feasible || total < best.total {
					*best = choice{total: total, in: next, algo: uint8(ai), feasible: true}
				}
			}
			if best.feasible {
				next += int32(nin)
				offered = true
			}
		}
		if !offered {
			return fmt.Errorf("optimizer: no platform offers %s (kind %s)", op.Name(), kind)
		}
	}

	// Pick the cheapest sink cell and backtrack.
	bestPl, bestTotal := -1, time.Duration(math.MaxInt64)
	for pi, c := range d.row(p.SinkOp) {
		if c.feasible && c.total < bestTotal {
			bestPl, bestTotal = pi, c.total
		}
	}
	if bestPl < 0 {
		return fmt.Errorf("optimizer: no feasible plan for %q", p.Name)
	}
	d.backtrack(p.SinkOp, bestPl, ep)
	// Re-walk the chosen assignment to report the full cost vector
	// (the DP optimises the scalar total only).
	ep.Estimated, ep.RawEstimated = vectorCost(p, reg, opts, ep, roots, pos, cards)
	return nil
}

// cheapestInput finds the platform (by index) to produce input in on,
// minimising the input's subtree cost plus the conversion cost from
// that platform's native format to the format the consuming operator
// takes it in (engine.Registry.InputFormat, which the executor converts
// to as well): the consumer platform's native format, or channel.Batch
// where op is batch-capable and that route is cheaper. Pricing the batch
// alternative is what lets plans adopt the columnar format on edges
// where it wins.
func (d *dp) cheapestInput(in *physical.Operator, consumer int, op *physical.Operator) (int, time.Duration, bool) {
	best, bestCost := -1, time.Duration(math.MaxInt64)
	bytes := d.est.Bytes(in.ID)
	for pi, c := range d.row(in) {
		if !c.feasible {
			continue
		}
		move := time.Duration(0)
		if pi != consumer {
			_, mc, ok := d.reg.InputFormat(d.platforms[pi].NativeFormat(), d.platforms[consumer], op, bytes)
			if !ok {
				continue
			}
			move = mc
		}
		if total := c.total + move; total < bestCost {
			best, bestCost = pi, total
		}
	}
	return best, bestCost, best >= 0
}

// backtrack fixes assignments and algorithms along the chosen DP path.
// On DAGs with shared sub-results the first visit wins; the cost
// estimate then slightly over-counts the shared subtree, which is an
// accepted approximation (plans are trees in practice).
func (d *dp) backtrack(op *physical.Operator, pi int, ep *ExecutionPlan) {
	if ep.Assignment[op.ID] != "" {
		return
	}
	c := d.row(op)[pi]
	ep.Assignment[op.ID] = d.platforms[pi].ID()
	op.Algo = physical.Candidates(op)[c.algo]
	for i, in := range op.Inputs {
		d.backtrack(in, int(d.picks[int(c.in)+i]), ep)
	}
}

// vectorCost re-walks the chosen assignment summing full cost vectors
// (the DP optimises the scalar total only), retaining each operator's
// cost in ep.OpCosts for the executor's estimate-vs-actual audit. It
// fills the raw (uncalibrated) twin in the same walk: raw model costs
// on raw cardinalities, which is what the calibrator learns against.
// cards is scratch for the cost models' input cardinalities, twice the
// plan's widest operator.
func vectorCost(p *physical.Plan, reg *engine.Registry, opts Options, ep *ExecutionPlan, roots, pos []int32, cards []int64) (total, rawTotal cost.Cost) {
	est, rawEst := ep.Estimates, ep.RawEstimates
	for _, op := range p.Ops {
		pl := ep.Assignment[op.ID]
		if body := ep.LoopBodies[op.ID]; body != nil {
			lc, rawLC := loopCosts(op, body)
			ep.OpCosts[op.ID] = lc
			ep.RawOpCosts[op.ID] = rawLC
			total = total.Plus(lc)
			rawTotal = rawTotal.Plus(rawLC)
		} else {
			inCards, rawIn := cards[:len(op.Inputs)], cards[len(cards)/2:][:len(op.Inputs)]
			for i, in := range op.Inputs {
				inCards[i] = est.Cards[in.ID]
				rawIn[i] = rawEst.Cards[in.ID]
			}
			if m, ok := reg.MappingFor(pl, op.Kind(), op.Algo); ok {
				oc := m.Cost(op, inCards, est.Cards[op.ID])
				raw := oc
				if rawEst != est {
					raw = m.Cost(op, rawIn, rawEst.Cards[op.ID])
				}
				if f := opts.Calibration.CostFactor(op.Kind().String(), string(pl)); f != 1 {
					oc = oc.Times(f)
				}
				newAtom := len(op.Inputs) == 0 && roots[pos[op.ID]] != 0
				for _, in := range op.Inputs {
					if ep.Assignment[in.ID] != pl {
						newAtom = true
					}
				}
				if !newAtom {
					oc.Startup = 0
					raw.Startup = 0
				}
				ep.OpCosts[op.ID] = oc
				ep.RawOpCosts[op.ID] = raw
				total = total.Plus(oc)
				rawTotal = rawTotal.Plus(raw)
			}
		}
		for _, in := range op.Inputs {
			inPl := ep.Assignment[in.ID]
			if inPl == pl {
				continue
			}
			from, _ := reg.Platform(inPl)
			to, _ := reg.Platform(pl)
			if _, mc, ok := reg.InputFormat(from.NativeFormat(), to, op, est.Bytes(in.ID)); ok {
				total = total.Plus(cost.Cost{Net: mc})
				rawTotal = rawTotal.Plus(cost.Cost{Net: mc})
			}
		}
	}
	return total, rawTotal
}
