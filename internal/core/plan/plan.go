package plan

import (
	"fmt"
	"strings"
)

// Plan is a validated DAG of logical operators with exactly one sink.
// Loop bodies are nested Plans whose single LoopInput operator stands
// for the data flowing into each iteration.
type Plan struct {
	name string
	ops  []*Operator // in insertion order (a topological order by construction)
	sink *Operator
	body bool // true for loop bodies, which use LoopInput instead of Source
}

// Name returns the plan's display name.
func (p *Plan) Name() string { return p.name }

// Operators returns all operators in a topological order. Callers must
// not mutate the returned slice.
func (p *Plan) Operators() []*Operator { return p.ops }

// Sink returns the plan's sink operator.
func (p *Plan) Sink() *Operator { return p.sink }

// LoopInput returns the body plan's LoopInput operator, or nil for a
// top-level plan.
func (p *Plan) LoopInput() *Operator {
	for _, op := range p.ops {
		if op.kind == KindLoopInput {
			return op
		}
	}
	return nil
}

// Validate re-checks the plan's structural invariants: one sink,
// payloads matching kinds, arity, acyclicity (implied by builder
// construction but re-verified), every non-sink operator consumed, and
// loop bodies having exactly one LoopInput.
func (p *Plan) Validate() error {
	if p.sink == nil {
		return fmt.Errorf("plan %q: no sink", p.name)
	}
	// The builder numbers operators by position, so "defined earlier" is
	// a position test and the consumed set a bitset over positions — on
	// the stack up to 256 operators.
	var small [4]uint64
	consumed := small[:]
	if w := (len(p.ops) + 63) / 64; w > len(small) {
		consumed = make([]uint64, w)
	}
	loopInputs := 0
	for i, op := range p.ops {
		if err := op.validatePayload(); err != nil {
			return fmt.Errorf("plan %q: %w", p.name, err)
		}
		if got, want := len(op.Inputs()), op.kind.Arity(); got != want {
			return fmt.Errorf("plan %q: %s has %d inputs, kind wants %d", p.name, op.Name(), got, want)
		}
		for _, in := range op.Inputs() {
			if in.id < 0 || int(in.id) >= i || p.ops[in.id] != in {
				return fmt.Errorf("plan %q: %s consumes %s before definition (cycle or foreign operator)",
					p.name, op.Name(), in.Name())
			}
			consumed[in.id>>6] |= 1 << (in.id & 63)
		}
		if int(op.id) != i {
			return fmt.Errorf("plan %q: operator id %d at position %d", p.name, op.id, i)
		}
		switch op.kind {
		case KindLoopInput:
			loopInputs++
			if !p.body {
				return fmt.Errorf("plan %q: LoopInput outside a loop body", p.name)
			}
		case KindRepeat, KindDoWhile:
			if err := op.Body().Validate(); err != nil {
				return fmt.Errorf("plan %q: loop body of %s: %w", p.name, op.Name(), err)
			}
			if !op.Body().body || op.Body().LoopInput() == nil {
				return fmt.Errorf("plan %q: body of %s lacks a LoopInput", p.name, op.Name())
			}
		}
	}
	if p.body && loopInputs != 1 {
		return fmt.Errorf("plan %q: loop body has %d LoopInputs, want 1", p.name, loopInputs)
	}
	for i, op := range p.ops {
		if op != p.sink && consumed[i>>6]&(1<<(i&63)) == 0 && op.kind != KindSink {
			return fmt.Errorf("plan %q: %s is dangling (never consumed)", p.name, op.Name())
		}
	}
	if p.sink.kind != KindSink {
		return fmt.Errorf("plan %q: sink operator has kind %s", p.name, p.sink.kind)
	}
	return nil
}

// String renders the plan as an indented operator list, one line per
// operator with its inputs, for debugging and golden tests.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %q:\n", p.name)
	for _, op := range p.ops {
		sb.WriteString("  ")
		sb.WriteString(op.Name())
		if ins := op.Inputs(); len(ins) > 0 {
			sb.WriteString(" <- ")
			for i, in := range ins {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(in.Name())
			}
		}
		sb.WriteByte('\n')
		if body := op.Body(); body != nil {
			for _, line := range strings.Split(strings.TrimRight(body.String(), "\n"), "\n") {
				sb.WriteString("    ")
				sb.WriteString(line)
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// Builder constructs plans. Each method adds one operator and returns
// its handle; Build validates and freezes the plan. A builder must not
// be reused after Build.
type Builder struct {
	plan  *Plan
	next  int
	built bool
	err   error
}

// opsHint is the operator index a builder starts with: most plans fit,
// so the index is one allocation, not a doubling per power of two.
const opsHint = 8

// NewBuilder starts a top-level plan.
func NewBuilder(name string) *Builder {
	return &Builder{plan: &Plan{name: name, ops: make([]*Operator, 0, opsHint)}}
}

// NewBodyBuilder starts a loop-body plan. The body reads its
// per-iteration input through the LoopInput operator.
func NewBodyBuilder(name string) *Builder {
	return &Builder{plan: &Plan{name: name, body: true, ops: make([]*Operator, 0, opsHint)}}
}

func (b *Builder) add(op *Operator) *Operator {
	if b.built {
		b.fail(fmt.Errorf("plan: builder for %q used after Build", b.plan.name))
		return op
	}
	op.id = int32(b.next)
	b.next++
	b.plan.ops = append(b.plan.ops, op)
	return op
}

// unary adds an operator of kind over in, holding the kind's key and UDF.
func (b *Builder) unary(kind OpKind, in *Operator, key KeyFunc, fn any) *Operator {
	return b.add(&Operator{kind: kind, n: 1, in: [2]*Operator{in}, Key: key, fn: fn})
}

// binary adds an operator of kind over l and r, holding the kind's keys.
func (b *Builder) binary(kind OpKind, l, r *Operator, lkey, rkey KeyFunc) *Operator {
	return b.add(&Operator{kind: kind, n: 2, in: [2]*Operator{l, r}, Key: lkey, fn: rkey})
}

// withExt adds op with its opExt, in one allocation.
func (b *Builder) withExt(op Operator, ext opExt) *Operator {
	both := &struct {
		op  Operator
		ext opExt
	}{op, ext}
	both.op.ext = &both.ext
	return b.add(&both.op)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Source adds a source operator reading from fn.
func (b *Builder) Source(name string, fn SourceFunc) *Operator {
	return b.add(&Operator{kind: KindSource, name: name, fn: fn})
}

// LoopInput adds the loop-body input placeholder.
func (b *Builder) LoopInput(name string) *Operator {
	return b.add(&Operator{kind: KindLoopInput, name: name})
}

// Map adds a map operator.
func (b *Builder) Map(in *Operator, fn MapFunc) *Operator { return b.unary(KindMap, in, nil, fn) }

// FlatMap adds a flat-map operator.
func (b *Builder) FlatMap(in *Operator, fn FlatMapFunc) *Operator {
	return b.unary(KindFlatMap, in, nil, fn)
}

// Filter adds a filter operator.
func (b *Builder) Filter(in *Operator, fn FilterFunc) *Operator {
	return b.unary(KindFilter, in, nil, fn)
}

// GroupBy adds a group-by operator applying fn to each key group.
func (b *Builder) GroupBy(in *Operator, key KeyFunc, fn GroupFunc) *Operator {
	return b.unary(KindGroupBy, in, key, fn)
}

// ReduceByKey adds a per-key pairwise fold. The reducer must preserve
// the key: key(fn(a, b)) must equal key(a) — distributed platforms
// re-derive the key from partially reduced records when shuffling
// map-side combined results.
func (b *Builder) ReduceByKey(in *Operator, key KeyFunc, fn ReduceFunc) *Operator {
	return b.unary(KindReduceByKey, in, key, fn)
}

// Reduce adds a global pairwise fold to a single record.
func (b *Builder) Reduce(in *Operator, fn ReduceFunc) *Operator {
	return b.unary(KindReduce, in, nil, fn)
}

// Sort adds an ordering operator.
func (b *Builder) Sort(in *Operator, key KeyFunc, desc bool) *Operator {
	op := b.unary(KindSort, in, key, nil)
	if desc {
		op.flags = descending
	}
	return op
}

// Distinct adds a duplicate-elimination operator.
func (b *Builder) Distinct(in *Operator) *Operator { return b.unary(KindDistinct, in, nil, nil) }

// Union adds a bag-union of two inputs.
func (b *Builder) Union(l, r *Operator) *Operator { return b.binary(KindUnion, l, r, nil, nil) }

// Join adds an equi-join; output records are Concat(left, right).
func (b *Builder) Join(l, r *Operator, lkey, rkey KeyFunc) *Operator {
	return b.binary(KindJoin, l, r, lkey, rkey)
}

// ThetaJoin adds a predicate join. When declarative inequality conditions
// are given, the optimizer may choose the IEJoin physical operator, with
// pred (if non-nil) applied as a residual filter.
func (b *Builder) ThetaJoin(l, r *Operator, pred PredFunc, conds ...IECondition) *Operator {
	return b.withExt(Operator{kind: KindThetaJoin, n: 2, in: [2]*Operator{l, r}, fn: pred}, opExt{conds: conds})
}

// Cartesian adds a cross product.
func (b *Builder) Cartesian(l, r *Operator) *Operator { return b.binary(KindCartesian, l, r, nil, nil) }

// Count adds a counting operator emitting a single (int) record.
func (b *Builder) Count(in *Operator) *Operator { return b.unary(KindCount, in, nil, nil) }

// Sample adds a take-first-N operator.
func (b *Builder) Sample(in *Operator, n int) *Operator {
	return b.withExt(Operator{kind: KindSample, n: 1, in: [2]*Operator{in}}, opExt{n: n})
}

// Repeat adds a fixed-iteration loop over body.
func (b *Builder) Repeat(in *Operator, times int, body *Plan) *Operator {
	return b.withExt(Operator{kind: KindRepeat, n: 1, in: [2]*Operator{in}}, opExt{times: times, body: body})
}

// DoWhile adds a conditional loop over body; cond is evaluated on each
// iteration's output and the loop continues while it returns true.
func (b *Builder) DoWhile(in *Operator, cond CondFunc, maxIter int, body *Plan) *Operator {
	return b.withExt(Operator{kind: KindDoWhile, n: 1, in: [2]*Operator{in}, fn: cond}, opExt{maxIter: maxIter, body: body})
}

// Collect marks the plan's sink.
func (b *Builder) Collect(in *Operator) *Operator {
	op := b.unary(KindSink, in, nil, nil)
	if b.plan.sink != nil {
		b.fail(fmt.Errorf("plan %q: multiple sinks", b.plan.name))
	}
	b.plan.sink = op
	return op
}

// Build validates and returns the plan. The builder is dead afterwards.
func (b *Builder) Build() (*Plan, error) {
	if b.built {
		return nil, fmt.Errorf("plan: Build called twice for %q", b.plan.name)
	}
	b.built = true
	if b.err != nil {
		return nil, b.err
	}
	if err := b.plan.Validate(); err != nil {
		return nil, err
	}
	return b.plan, nil
}

// MustBuild is Build for statically correct plans; it panics on error.
func (b *Builder) MustBuild() *Plan {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
