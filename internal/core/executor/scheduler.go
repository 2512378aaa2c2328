// The concurrent task-atom scheduler. The optimizer's execution plan
// already exposes inter-atom parallelism — independent branches of a
// multi-platform plan, the scan legs of a join, siblings produced by
// the shared-scan rewrite — and the scheduler exploits it: each atom's
// predecessor set is derived from its external inputs, ready atoms are
// dispatched onto a bounded worker pool (Options.Parallelism), and
// exit channels published by one atom unblock its dependents.
//
// Concurrency contract (see also DESIGN.md §5):
//
//   - every plan's channel table, Result accumulation and the audit
//     ledger are guarded by run.mu; trace consumers are serialized by
//     the run's Tracer;
//   - two bounds: Parallelism caps a plan's in-flight atoms in the
//     dispatcher itself (a counter — which is what keeps Parallelism 1
//     in topological order); Options.Pool is the host-wide semaphore
//     every compute atom blocks on. Only atoms hold its slots: inside
//     an atom, parallelism is the platform's (javaengine's windows,
//     sparksim's partitions) on engine's helper runtime;
//   - runAtom is the one place an atom runs: it holds the Pool slot,
//     owns the atom's span and recovers panics into engine.Fatal;
//   - the first atom error wins: it cancels the run context so
//     in-flight siblings abort, their (context) errors are discarded,
//     and Run returns the original error without a PlanDone event;
//   - re-planning is always on, and it quiesces: on a flagged audit
//     while the plan still has atoms that have not started (adaptive)
//     or a quarantined platform's failure (failover) the dispatcher
//     stops launching atoms, drains the ones in flight, and only then
//     re-plans — so the re-optimizer sees a frozen, consistent channel
//     map. At most one adaptive re-plan happens per run;
//   - loop atoms keep sequential per-iteration semantics, but each
//     iteration's body plan is scheduled concurrently by the same
//     machinery (a planScope with its own channel table).
package executor

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/trace"
)

// atomNode is one schedulable atom with its dependency bookkeeping.
// All fields are owned by the dispatcher goroutine.
type atomNode struct {
	atom       *engine.TaskAtom
	waits      int // unmet producer atoms
	dependents []*atomNode
	readyAt    time.Time // when the last dependency resolved (queue-wait base)
}

// runPlan executes the scope's plan against its channel table (a loop
// body's comes with the LoopInput channel pre-seeded), re-planning the
// rest whenever the top-level schedule quiesces for it: once at most
// for adaptive re-optimization, once per newly excluded platform for
// failover.
func (p *planScope) runPlan() error {
	for {
		replan, fo, err := p.scheduleAtoms()
		if err != nil || !replan {
			return err
		}
		// Quiesced: every worker has drained, so the channel table and the
		// result are stable and single-threaded access is safe.
		// Completed atoms keep their channels and stay frozen.
		newEP, err := p.reoptimize(fo)
		if err != nil {
			return err
		}
		if fo != nil {
			excluded := make([]engine.PlatformID, 0, len(p.excluded))
			for id := range p.excluded {
				excluded = append(excluded, id)
			}
			sort.Slice(excluded, func(i, j int) bool { return excluded[i] < excluded[j] })
			p.res.Failovers++
			p.tr.Failover(fo.atom, fo.err, excluded)
		} else {
			p.res.Reoptimized = true
			p.tr.Replan()
		}
		p.res.FinalPlan = newEP
		p.tr.Start(newEP.Physical.Name, len(newEP.Atoms))
		p.ep = newEP // its completed atoms are skipped via atomDone
	}
}

// runAtom is the one place an atom executes — on the dispatcher's
// goroutine when it is the only atom that can run, otherwise on a
// goroutine of its own. It takes the atom's slot from the host pool,
// opens its span, runs it, recovers a panic from anything it ran into an
// engine.Fatal (see recoverFatal), and closes the span with the outcome. Everything
// the atom holds — its pool slot above all — is released by the time
// runAtom returns, so the dispatcher never learns of a finished atom
// (and Run never returns) while the atom still occupies a slot.
// flagged reports that the atom's audit (or, for a loop, a body atom's)
// flagged a gross cardinality miss.
func (p *planScope) runAtom(n *atomNode) (flagged bool, err error) {
	if err := p.ctx.Err(); err != nil {
		return false, err
	}
	atom := n.atom
	kind := trace.KindLoop
	if atom.Kind != engine.AtomLoop {
		kind = trace.KindAtom
		// Compute atoms hold a slot of the shared cross-run pool (when
		// one is set) while they execute; the wait is part of the
		// atom's queue time. Loop atoms never hold one — their body
		// plans' compute atoms acquire their own — so slot holders
		// cannot wait on each other (see pool.go).
		if pool := p.opts.Pool; pool != nil {
			if err := pool.Acquire(p.ctx); err != nil {
				return false, err
			}
			defer pool.Release()
		}
	}
	sp := p.tr.Begin(newAtomSpan(p.ep, atom, trace.Span{
		Kind: kind, AtomID: atom.ID, Name: atom.String(),
		Platform: atom.Platform, Plan: p.ep.Physical.Name, Iteration: p.iter,
		EstCost: atomEstCost(p.ep, atom), Atom: atom,
	}), n.readyAt)
	var m engine.Metrics
	var audits []trace.CardAudit
	defer func() {
		p.tr.End(sp, m, err)
		p.tr.Audit(audits...)
	}()
	defer recoverFatal(atom, &err) // runs first: the span ends with the panic
	if atom.Kind == engine.AtomLoop {
		return p.runLoop(sp, atom)
	}
	m, audits, err = p.runComputeAtom(sp, atom)
	for _, a := range audits {
		flagged = flagged || a.Flagged
	}
	return flagged, err
}

// scheduleAtoms runs the plan's pending atoms to completion, at most
// Parallelism of them in flight. It returns replan=true when the
// top-level schedule quiesced — every in-flight atom drained — for a
// re-plan: with a nil failover for adaptive re-optimization after a
// flagged audit, with the failure when a quarantined platform's atom
// demands cross-platform failover (the survivors' outputs seed the
// re-plan). Otherwise it returns the first atom error, after
// cancelling its in-flight siblings.
func (p *planScope) scheduleAtoms() (replan bool, failover *failoverError, err error) {
	// Graph setup is single-threaded: no workers are live yet, so the
	// channel table can be read unlocked. The pending atoms' nodes share
	// one slab and the producer index is a table by operator ID: the
	// graph costs the same whatever the plan's width. The slab's capacity
	// is every atom, so no append moves a node a pointer was taken to.
	p.nodes = engine.Grown(p.nodes, len(p.ep.Atoms))
	p.producer = engine.Grown(p.producer, len(p.channels))
	nodes, producer := p.nodes[:0], p.producer
	for _, atom := range p.ep.Atoms {
		if atomDone(atom, p.channels) {
			continue // outputs already available (re-optimized run)
		}
		nodes = append(nodes, atomNode{atom: atom})
		for _, op := range atomOps(atom) {
			producer[op.ID] = &nodes[len(nodes)-1]
		}
	}
	p.ready = engine.Grown(p.ready, len(nodes))
	ready := p.ready[:0]
	for i := range nodes {
		n := &nodes[i]
		// The producers an atom waits for: those of its inputs that cross
		// the atom boundary (a loop atom's are its loop operator's).
		for _, op := range atomOps(n.atom) {
			for _, in := range op.Inputs {
				if n.atom.Contains(in.ID) || p.channels[in.ID] != nil {
					continue // in-atom, pre-seeded or produced by a completed atom
				}
				// A needed channel with no pending producer is left for
				// the atom itself to report, preserving the sequential
				// executor's error message. The scan is in atom order, so
				// a producer already counted is the last one this atom
				// joined.
				prod := producer[in.ID]
				if prod == nil || prod == n || (len(prod.dependents) > 0 && prod.dependents[len(prod.dependents)-1] == n) {
					continue
				}
				n.waits++
				prod.dependents = append(prod.dependents, n)
			}
		}
		if n.waits == 0 {
			ready = append(ready, n)
		}
	}
	// Atoms with no unmet dependencies have been waiting since the
	// schedule started; their queue-wait clock starts now.
	startReady := p.tr.Now()
	for _, n := range ready {
		n.readyAt = startReady
	}

	type doneMsg struct {
		n       *atomNode
		flagged bool
		err     error
	}
	var doneCh chan doneMsg // made when the first atom goes to a goroutine
	// Adaptive re-optimization is the top level's, once per run; only
	// this goroutine ever writes res.Reoptimized.
	adaptive := p.topLevel && !p.res.Reoptimized
	inflight, finished, stopping := 0, 0, false
	var firstErr error

	for {
		var m doneMsg
		if !stopping && inflight == 0 && len(ready) == 1 {
			// The one atom that can run: nothing is in flight to overlap
			// it with, so it runs here, with no goroutine or hand-off —
			// every atom of a chain plan, and a one-atom plan's only one.
			m.n, ready = ready[0], ready[1:]
			m.flagged, m.err = p.runAtom(m.n)
		} else {
			// FIFO dispatch keeps Parallelism=1 runs in the plan's
			// topological atom order — the sequential executor's behavior.
			for !stopping && inflight < p.opts.Parallelism && len(ready) > 0 {
				n := ready[0]
				ready = ready[1:]
				inflight++
				if doneCh == nil {
					doneCh = make(chan doneMsg)
				}
				done := doneCh
				go func() {
					flagged, err := p.runAtom(n)
					done <- doneMsg{n: n, flagged: flagged, err: err}
				}()
			}
			if inflight == 0 {
				break
			}
			m = <-doneCh
			inflight--
		}
		p.flagged = p.flagged || m.flagged
		if m.err != nil {
			var fe *failoverError
			wantsFailover := errors.As(m.err, &fe)
			switch {
			case wantsFailover && p.topLevel:
				// Quiesce WITHOUT cancelling: in-flight siblings finish
				// and their outputs survive into the failover re-plan.
				// Later failover errors during the drain are subsumed by
				// it (their operators get re-planned too).
				if firstErr == nil && failover == nil {
					failover = fe
				}
			case wantsFailover:
				// A loop-body atom wants failover: drain this body plan
				// uncancelled and hand the error up — the top-level
				// scheduler re-plans, loop included.
				if firstErr == nil {
					firstErr = m.err
				}
			case firstErr == nil:
				firstErr = m.err
				p.cancel() // first error wins; abort in-flight siblings
				failover = nil
			}
			stopping = true
			continue
		}
		finished++
		if stopping {
			continue // draining; dependents stay parked
		}
		for _, d := range m.n.dependents {
			d.waits--
			if d.waits == 0 {
				d.readyAt = p.tr.Now()
				ready = append(ready, d)
			}
		}
		if adaptive && m.flagged && finished+inflight < len(nodes) {
			// Quiesce for re-planning: stop dispatching and let the
			// atoms already in flight drain. A flag once every atom has
			// started is audit evidence only: nothing is left to move.
			stopping, replan = true, true
		}
	}

	switch {
	case firstErr != nil:
		return false, nil, firstErr
	case failover != nil:
		return true, failover, nil
	case !replan && finished < len(nodes):
		return false, nil, fmt.Errorf("executor: scheduler stalled after %d of %d atoms in plan %q", finished, len(nodes), p.ep.Physical.Name)
	}
	return replan, nil, nil
}
