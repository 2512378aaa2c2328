// Package physical implements RHEEM's core-layer operator pool.
//
// A physical operator is "a platform-independent implementation of a
// logical operator ... representing an algorithmic decision for
// executing an analytic task" (paper §3.1). Concretely, a physical
// operator here is a node that wraps a logical operator (the paper's
// *wrapper* operator, carrying the user's UDF) or stands on its own as
// an *enhancer* operator inserted by an optimizer to bridge signature
// gaps, plus an Algorithm tag naming the algorithmic decision (e.g.
// SortGroupBy vs HashGroupBy — the paper's Example 2).
//
// Physical plans still say nothing about platforms: the same physical
// plan can execute on the single-node engine, the Spark simulator, the
// relational engine, or a mix — that choice is the multi-platform
// optimizer's (package optimizer), guided by declarative mappings
// (package engine).
package physical

import (
	"fmt"
	"strings"
	"sync/atomic"

	"rheem/internal/core/plan"
)

// Algorithm names an algorithmic decision for executing an operator.
// The zero value Default means "the kind's only sensible algorithm".
type Algorithm string

// The algorithm pool. Registering a new algorithm (the paper's IEJoin
// story) means adding a constant here, a kernel in package algo with
// its case in algo.Exec, and declarative mappings — no optimizer changes.
const (
	Default       Algorithm = "default"
	HashGroupBy   Algorithm = "hash-groupby"
	SortGroupBy   Algorithm = "sort-groupby"
	HashJoin      Algorithm = "hash-join"
	SortMergeJoin Algorithm = "sort-merge-join"
	NestedLoop    Algorithm = "nested-loop"
	IEJoin        Algorithm = "ie-join"
	HashDistinct  Algorithm = "hash-distinct"
	SortDistinct  Algorithm = "sort-distinct"
)

// Operator is a node of a physical plan.
type Operator struct {
	ID       int
	Logical  *plan.Operator // wrapped logical operator; nil only for enhancers
	Algo     Algorithm      // chosen algorithm (Default until the optimizer decides)
	Enhancer bool           // inserted by an optimizer, not written by the user
	Inputs   []*Operator
	Body     *Plan // physical body plan for Repeat/DoWhile
}

// Kind returns the wrapped logical operator's kind.
func (o *Operator) Kind() plan.OpKind { return o.Logical.Kind() }

// Name renders the operator with its algorithm for plan printouts.
func (o *Operator) Name() string {
	if !o.Enhancer && (o.Algo == Default || o.Algo == "") {
		return o.Logical.Name()
	}
	return string(o.AppendName(make([]byte, 0, 64)))
}

// AppendName appends Name() to b.
func (o *Operator) AppendName(b []byte) []byte {
	b = o.Logical.AppendName(b)
	if o.Enhancer {
		b = append(b, '+')
	}
	if o.Algo != Default && o.Algo != "" {
		b = append(b, '[')
		b = append(b, o.Algo...)
		b = append(b, ']')
	}
	return b
}

// Plan is a DAG of physical operators with one sink, in topological
// order. Unlike logical plans, physical plans are mutable: optimizer
// rules edit them in place through the rewrite helpers below.
//
// Operator IDs are unique across a plan *tree* — a plan and all its
// nested loop bodies share one ID space — so cardinality estimates and
// platform assignments can be keyed by ID globally.
type Plan struct {
	Name   string
	Ops    []*Operator
	SinkOp *Operator
	// nextID is shared across the plan tree and bumped atomically so
	// enhancer insertion stays race-free even if rules run while other
	// goroutines (e.g. the executor's audit) hold plan references.
	nextID *atomic.Int64
}

// FromLogical translates a validated logical plan into a physical plan
// by wrapping every logical operator (the application optimizer's
// baseline translation, §4.1). Loop bodies are translated recursively.
// All algorithms start as Default; the core-layer optimizer refines
// them.
func FromLogical(p *plan.Plan) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("physical: %w", err)
	}
	r := new(root)
	r.nextID = &r.ids
	fromLogical(&r.Plan, p)
	return &r.Plan, nil
}

// root is a top-level plan and the ID counter its loop bodies share, in
// one allocation.
type root struct {
	Plan
	ids atomic.Int64
}

// fromLogical fills out, whose nextID is set, from p. Whatever the
// plan's width it allocates twice: one slab holds the operators, one
// backing array the operator list and every input list. Logical IDs are
// positions (plan.Validate checks it), so the slab is also the index
// from a logical input to its physical operator.
func fromLogical(out *Plan, p *plan.Plan) {
	lops := p.Operators()
	n, edges := len(lops), 0
	for _, lop := range lops {
		edges += len(lop.Inputs())
	}
	slab := make([]Operator, n)
	ptrs := make([]*Operator, n+edges)
	out.Name, out.Ops = p.Name(), ptrs[:n:n]
	ins := ptrs[n:]
	for i, lop := range lops {
		pop := &slab[i]
		pop.ID, pop.Logical = int(out.nextID.Add(1)-1), lop
		if k := len(lop.Inputs()); k > 0 {
			pop.Inputs, ins = ins[:k:k], ins[k:]
			for j, in := range lop.Inputs() {
				pop.Inputs[j] = &slab[in.ID()]
			}
		}
		if body := lop.Body(); body != nil {
			pop.Body = &Plan{nextID: out.nextID}
			fromLogical(pop.Body, body)
		}
		out.Ops[i] = pop
		if lop == p.Sink() {
			out.SinkOp = pop
		}
	}
}

// IDBound returns a bound on the operator IDs of the plan's tree — the
// plan, its loop bodies and the plan it is a body of: every ID is below
// it, so a slice of that length indexes operators by ID.
func (p *Plan) IDBound() int {
	if p.nextID != nil {
		return int(p.nextID.Load())
	}
	n := 0
	for _, op := range p.Ops {
		n = max(n, op.ID+1)
		if op.Body != nil {
			n = max(n, op.Body.IDBound())
		}
	}
	return n
}

// algos backs every decision space Candidates returns, each sliced to
// its own length and capacity: one read-only array, never a new slice.
var algos = [...]Algorithm{HashGroupBy, SortGroupBy, HashJoin, SortMergeJoin,
	IEJoin, NestedLoop, HashDistinct, SortDistinct, Default}

// Candidates returns the algorithmic decision space of an operator —
// the alternatives "from which the optimizer of the core level will
// have to choose" (paper Example 2). Callers share it and only read it.
func Candidates(o *Operator) []Algorithm {
	switch o.Kind() {
	case plan.KindGroupBy, plan.KindReduceByKey:
		return algos[0:2:2] // HashGroupBy, SortGroupBy
	case plan.KindJoin:
		return algos[2:4:4] // HashJoin, SortMergeJoin
	case plan.KindThetaJoin:
		if len(o.Logical.Conditions()) > 0 {
			return algos[4:6:6] // IEJoin, NestedLoop
		}
		return algos[5:6:6] // NestedLoop
	case plan.KindDistinct:
		return algos[6:8:8] // HashDistinct, SortDistinct
	default:
		return algos[8:9:9] // Default
	}
}

// Consumers returns, for each operator ID, its consuming operators.
func (p *Plan) Consumers() map[int][]*Operator {
	out := make(map[int][]*Operator, len(p.Ops))
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			out[in.ID] = append(out[in.ID], op)
		}
	}
	return out
}

// Validate re-checks topological order, sink presence, and input
// wiring after rule rewrites.
func (p *Plan) Validate() error {
	if p.SinkOp == nil {
		return fmt.Errorf("physical: plan %q has no sink", p.Name)
	}
	// The IDs seen so far: a bitset, on the stack up to 256 IDs.
	bound := 0
	for _, op := range p.Ops {
		if op.ID < 0 {
			return fmt.Errorf("physical: plan %q: %s has negative id %d", p.Name, op.Name(), op.ID)
		}
		bound = max(bound, op.ID+1)
	}
	var small [4]uint64
	seen := small[:]
	if w := (bound + 63) / 64; w > len(small) {
		seen = make([]uint64, w)
	}
	has := func(id int) bool { return id >= 0 && id < bound && seen[id>>6]&(1<<(id&63)) != 0 }
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if !has(in.ID) {
				return fmt.Errorf("physical: plan %q: %s consumes %s before definition",
					p.Name, op.Name(), in.Name())
			}
		}
		if has(op.ID) {
			return fmt.Errorf("physical: plan %q: duplicate op id %d", p.Name, op.ID)
		}
		seen[op.ID>>6] |= 1 << (op.ID & 63)
		if op.Body != nil {
			if err := op.Body.Validate(); err != nil {
				return err
			}
		}
	}
	if !has(p.SinkOp.ID) {
		return fmt.Errorf("physical: plan %q: sink not in op list", p.Name)
	}
	return nil
}

// String renders the plan one operator per line.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "physical plan %q:\n", p.Name)
	for _, op := range p.Ops {
		sb.WriteString("  ")
		sb.WriteString(op.Name())
		if len(op.Inputs) > 0 {
			sb.WriteString(" <- ")
			for i, in := range op.Inputs {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(in.Name())
			}
		}
		sb.WriteByte('\n')
		if op.Body != nil {
			for _, line := range strings.Split(strings.TrimRight(op.Body.String(), "\n"), "\n") {
				sb.WriteString("    ")
				sb.WriteString(line)
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// --- rewrite helpers used by optimizer rules ---

// NewEnhancer creates an enhancer operator wrapping a synthesized
// logical payload and registers it in the plan (appended; callers must
// re-establish topological order with Normalize if they wire it
// mid-plan).
func (p *Plan) NewEnhancer(logical *plan.Operator, inputs ...*Operator) *Operator {
	if p.nextID == nil {
		p.nextID = new(atomic.Int64)
		for _, op := range p.Ops {
			if int64(op.ID) >= p.nextID.Load() {
				p.nextID.Store(int64(op.ID) + 1)
			}
		}
	}
	op := &Operator{ID: int(p.nextID.Add(1) - 1), Logical: logical, Enhancer: true, Inputs: inputs}
	p.Ops = append(p.Ops, op)
	return op
}

// ReplaceInput rewires every occurrence of old in op's inputs to new.
func (o *Operator) ReplaceInput(old, new *Operator) {
	for i, in := range o.Inputs {
		if in == old {
			o.Inputs[i] = new
		}
	}
}

// Remove deletes an operator with exactly one input from the plan,
// rewiring its consumers to its input. It returns an error if the
// operator has a different arity or is the sink.
func (p *Plan) Remove(op *Operator) error {
	if len(op.Inputs) != 1 {
		return fmt.Errorf("physical: Remove(%s): arity %d", op.Name(), len(op.Inputs))
	}
	if op == p.SinkOp {
		return fmt.Errorf("physical: Remove(%s): is the sink", op.Name())
	}
	in := op.Inputs[0]
	for _, other := range p.Ops {
		other.ReplaceInput(op, in)
	}
	for i, o := range p.Ops {
		if o == op {
			p.Ops = append(p.Ops[:i], p.Ops[i+1:]...)
			break
		}
	}
	return nil
}

// Normalize re-sorts Ops into a topological order (Kahn's algorithm);
// rules call it after structural edits. It fails on cycles.
func (p *Plan) Normalize() error {
	indeg := make(map[int]int, len(p.Ops))
	byID := make(map[int]*Operator, len(p.Ops))
	for _, op := range p.Ops {
		byID[op.ID] = op
		if _, ok := indeg[op.ID]; !ok {
			indeg[op.ID] = 0
		}
	}
	consumers := p.Consumers()
	for _, op := range p.Ops {
		indeg[op.ID] = len(op.Inputs)
	}
	var queue []*Operator
	for _, op := range p.Ops {
		if indeg[op.ID] == 0 {
			queue = append(queue, op)
		}
	}
	var sorted []*Operator
	for len(queue) > 0 {
		op := queue[0]
		queue = queue[1:]
		sorted = append(sorted, op)
		for _, c := range consumers[op.ID] {
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(sorted) != len(p.Ops) {
		return fmt.Errorf("physical: plan %q has a cycle after rewrite", p.Name)
	}
	p.Ops = sorted
	return nil
}
