package optimizer

import (
	"fmt"
	"math/bits"

	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// splitAtoms divides an assigned physical plan into task atoms:
// maximal same-platform fragments that stay *convex* (no dataflow path
// leaves an atom and re-enters it), so atoms can execute strictly one
// after another. Loop operators become their own executor-driven
// atoms; LoopInput placeholders belong to no atom — the executor seeds
// their channels directly.
//
// During adaptive re-optimization, frozen (already-executed) operators
// are never grouped with unfrozen ones, so fully-frozen atoms can be
// skipped wholesale by the executor.
func splitAtoms(p *physical.Plan, s *scratch, assignment []engine.PlatformID, frozen map[int]bool) ([]*engine.TaskAtom, error) {
	// Every set the splitter keeps is a row of bits over one backing
	// slice, indexed by operator position or by atom ID (there are at
	// most as many atoms as operators, so one row width fits both).
	pos, n := s.pos, len(p.Ops)
	w := (n + 63) / 64
	s.bits = engine.Grown(s.bits, (3*n+2)*w)
	store := s.bits
	row := func(i int) bitset { return store[i*w : (i+1)*w] }
	ancestors := func(op int) bitset { return row(op) }       // transitive input closure, for the convexity check
	members := func(atom int) bitset { return row(n + atom) } // the atom's operators
	deps := func(atom int) bitset { return row(2*n + atom) }  // atoms the atom consumes from
	external, pending := row(3*n), row(3*n+1)                 // operators consumed outside their atom; atoms not yet ordered

	// There are at most as many atoms as operators, so the atom of every
	// operator (by position), the atoms in creation order (atoms[i].ID ==
	// i) and the atoms in execution order share one backing array.
	refs := make([]*engine.TaskAtom, 3*n)
	atomOf, atoms, sorted := refs[:n], refs[n:n:2*n], refs[2*n:2*n:3*n]
	newAtom := func(kind engine.AtomKind, pl engine.PlatformID) *engine.TaskAtom {
		a := &engine.TaskAtom{ID: len(atoms), Kind: kind, Platform: pl}
		atoms = append(atoms, a)
		return a
	}

	for i, op := range p.Ops {
		for _, in := range op.Inputs {
			ancestors(i).set(int(pos[in.ID]))
			ancestors(i).or(ancestors(int(pos[in.ID])))
		}
		pl := assignment[op.ID]
		if pl == "" {
			return nil, fmt.Errorf("optimizer: %s has no platform assignment", op.Name())
		}
		switch op.Kind() {
		case plan.KindLoopInput:
			continue // seeded by the executor
		case plan.KindRepeat, plan.KindDoWhile:
			a := newAtom(engine.AtomLoop, pl)
			a.LoopOp = op
			atomOf[i] = a
			members(a.ID).set(i)
			continue
		}

		// Try to absorb into a same-platform input atom, convexly:
		// joining atom A is safe iff no other input of op reaches A
		// through an operator outside A. Frozen and unfrozen operators
		// never share an atom.
		var target *engine.TaskAtom
		for _, in := range op.Inputs {
			cand := atomOf[pos[in.ID]]
			if cand == nil || cand.Platform != pl || cand.Kind != engine.AtomCompute {
				continue
			}
			if frozen[op.ID] != frozen[in.ID] {
				continue
			}
			safe := true
			for _, other := range op.Inputs {
				// Does `other` depend on anything inside cand?
				if atomOf[pos[other.ID]] != cand && ancestors(int(pos[other.ID])).intersects(members(cand.ID)) {
					safe = false
					break
				}
			}
			if safe {
				target = cand
				break
			}
		}
		if target == nil {
			target = newAtom(engine.AtomCompute, pl)
		}
		members(target.ID).set(i)
		atomOf[i] = target
	}

	// Exits: operators consumed outside their atom, plus the sink. Atom
	// A precedes B if any op of A feeds an op of B.
	external.set(int(pos[p.SinkOp.ID]))
	for i, op := range p.Ops {
		a := atomOf[i]
		for _, in := range op.Inputs {
			ia := atomOf[pos[in.ID]]
			if ia != a {
				external.set(int(pos[in.ID]))
			}
			if a != nil && ia != nil && ia != a {
				deps(a.ID).set(ia.ID)
			}
		}
	}
	// Ops and Exits of every atom share one backing array (an operator
	// is in at most one of each); both list operators in plan order.
	backing := make([]*physical.Operator, 0, 2*n)
	take := func(set, mask bitset) []*physical.Operator {
		start := len(backing)
		for wi, word := range set {
			if mask != nil {
				word &= mask[wi]
			}
			for ; word != 0; word &= word - 1 {
				backing = append(backing, p.Ops[wi*64+bits.TrailingZeros64(word)])
			}
		}
		return backing[start:len(backing):len(backing)]
	}
	for _, a := range atoms {
		if a.Kind == engine.AtomCompute {
			a.Ops = take(members(a.ID), nil)
			a.Exits = take(members(a.ID), external)
		}
		a.Seal()
		pending.set(a.ID)
	}

	// Order atoms topologically (Kahn), earliest-created first among the
	// ready. Convexity guarantees the atom graph is acyclic; a cycle here
	// is an internal invariant violation.
	for len(sorted) < len(atoms) {
		progressed := false
		for _, a := range atoms {
			if !pending.has(a.ID) || deps(a.ID).intersects(pending) {
				continue
			}
			pending.clear(a.ID)
			sorted = append(sorted, a)
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("optimizer: cycle in task atom graph of %q", p.Name)
		}
	}
	return sorted, nil
}

// bitset is a fixed-width set of small integers.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) intersects(o bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}
