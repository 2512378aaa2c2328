// The concurrent task-atom scheduler. The optimizer's execution plan
// already exposes inter-atom parallelism — independent branches of a
// multi-platform plan, the scan legs of a join, siblings produced by
// the shared-scan rewrite — and the scheduler exploits it: each atom's
// predecessor set is derived from its external inputs, ready atoms are
// dispatched onto a bounded worker pool (Options.Parallelism), and
// exit channels published by one atom unblock its dependents.
//
// Concurrency contract (see also DESIGN.md §executor):
//
//   - the channel map, Result accumulation, and the audit ledger are
//     guarded by runState.mu; trace consumers (the Monitor callback
//     among them) are serialized by the run's Tracer;
//   - the first atom error wins: it cancels the run context so
//     in-flight siblings abort, their (context) errors are discarded,
//     and Run returns the original error without emitting
//     EventPlanDone;
//   - adaptive re-optimization quiesces: on a mismatch the dispatcher
//     stops launching atoms, drains the ones in flight, and only then
//     re-plans — so the re-optimizer sees a frozen, consistent
//     channel map. At most one re-plan happens per run;
//   - loop atoms keep sequential per-iteration semantics, but each
//     iteration's body plan is scheduled concurrently by the same
//     machinery (with its own channel map and worker budget).
package executor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/trace"
)

// runState is the mutable state one run shares across concurrently
// executing atoms and nested loop-body plans.
type runState struct {
	mu      sync.Mutex // guards res, every plan's channel map, audited
	cancel  context.CancelFunc
	res     *Result
	tr      *trace.Tracer // the run's span stream; serializes consumers
	audited map[int]bool
	// shardSem is the run-wide budget for concurrent shard executions
	// (nil when sharding is off). Acquisition never blocks: an atom that
	// finds no free slot runs the shard inline in its own goroutine, so
	// shard scheduling cannot deadlock the atom worker pool.
	shardSem chan struct{}
	// excluded accumulates platforms ruled out by failover re-plans.
	// Only the top-level dispatcher touches it, and only while
	// quiesced, so it needs no lock. It only grows, which bounds the
	// failover loop by the registry size.
	excluded map[engine.PlatformID]bool
}

// atomNode is one schedulable atom with its dependency bookkeeping.
// All fields are owned by the dispatcher goroutine.
type atomNode struct {
	atom       *engine.TaskAtom
	waits      int // unmet producer atoms
	dependents []*atomNode
	readyAt    time.Time // when the last dependency resolved (queue-wait base)
}

// externalInputIDs lists the physical operator IDs whose channels the
// atom needs before it can start: for compute atoms the inputs that
// cross the atom boundary, for loop atoms the loop operator's inputs.
func externalInputIDs(atom *engine.TaskAtom) []int {
	if atom.Kind == engine.AtomLoop {
		ids := make([]int, 0, len(atom.LoopOp.Inputs))
		for _, in := range atom.LoopOp.Inputs {
			ids = append(ids, in.ID)
		}
		return ids
	}
	var ids []int
	for _, op := range atom.Ops {
		for _, in := range op.Inputs {
			if !atom.Contains(in.ID) {
				ids = append(ids, in.ID)
			}
		}
	}
	return ids
}

// runPlan executes one execution plan's atoms against a shared channel
// map (loop bodies are nested runPlan calls with the LoopInput channel
// pre-seeded), re-planning at most once when the top-level schedule
// requests adaptive re-optimization.
func runPlan(ep *optimizer.ExecutionPlan, reg *engine.Registry, opts *Options, st *runState, channels map[int]*channel.Channel, topLevel bool, iter int) error {
	for {
		replan, failover, err := scheduleAtoms(ep, reg, opts, st, channels, topLevel, iter)
		if err != nil {
			return err
		}
		if failover != nil {
			// Quiesced after a platform failure: quarantine the failed
			// platform (plus anything else the breaker holds open) and
			// re-plan the remaining operators onto the survivors.
			// Completed atoms keep their channels and stay frozen.
			if st.excluded == nil {
				st.excluded = map[engine.PlatformID]bool{}
			}
			st.excluded[failover.platform] = true
			for _, id := range reg.Health().QuarantinedPlatforms() {
				st.excluded[id] = true
			}
			newEP, rerr := reoptimize(ep, reg, opts, channels, st.excluded)
			if rerr != nil {
				// No capable platform remains for some operator: the
				// run fails, reporting both the failure and the dead end.
				return fmt.Errorf("executor: failover from platform %q found no capable platform: %v (original failure: %w)",
					failover.platform, rerr, failover.err)
			}
			st.mu.Lock()
			st.res.Failovers++
			st.res.FinalPlan = newEP
			st.mu.Unlock()
			excluded := make([]engine.PlatformID, 0, len(st.excluded))
			for id := range st.excluded {
				excluded = append(excluded, id)
			}
			sort.Slice(excluded, func(i, j int) bool { return excluded[i] < excluded[j] })
			st.tr.Failover(failover.atom, failover.err, excluded)
			st.tr.Start(newEP.Physical.Name, len(newEP.Atoms))
			ep = newEP
			continue
		}
		if !replan {
			return nil
		}
		// Quiesced: every worker has drained, so the channel map is
		// stable and single-threaded access is safe.
		newEP, err := reoptimize(ep, reg, opts, channels, st.excluded)
		if err != nil {
			return fmt.Errorf("executor: re-optimization: %w", err)
		}
		st.mu.Lock()
		st.res.Reoptimized = true
		st.res.FinalPlan = newEP
		st.mu.Unlock()
		st.tr.Replan()
		st.tr.Start(newEP.Physical.Name, len(newEP.Atoms))
		ep = newEP
		// Completed atoms of the old plan are skipped via atomDone.
	}
}

// scheduleAtoms runs one plan's pending atoms to completion on a
// bounded worker pool. It returns replan=true when a cardinality
// mismatch at the top level requests adaptive re-optimization (after
// all in-flight atoms have drained), a non-nil failover when a
// quarantined platform's atom demands cross-platform failover (also
// after draining — the survivors' outputs seed the re-plan), or the
// first atom error after cancelling its in-flight siblings.
func scheduleAtoms(ep *optimizer.ExecutionPlan, reg *engine.Registry, opts *Options, st *runState, channels map[int]*channel.Channel, topLevel bool, iter int) (bool, *failoverError, error) {
	// Graph setup is single-threaded: no workers are live yet, so the
	// channel map can be read unlocked.
	producer := make(map[int]*atomNode)
	var nodes []*atomNode
	for _, atom := range ep.Atoms {
		if atomDone(atom, channels) {
			continue // outputs already available (re-optimized run)
		}
		n := &atomNode{atom: atom}
		nodes = append(nodes, n)
		if atom.Kind == engine.AtomLoop {
			producer[atom.LoopOp.ID] = n
		} else {
			for _, op := range atom.Ops {
				producer[op.ID] = n
			}
		}
	}
	var ready []*atomNode
	for _, n := range nodes {
		seen := make(map[*atomNode]bool)
		for _, id := range externalInputIDs(n.atom) {
			if channels[id] != nil {
				continue // pre-seeded or produced by a completed atom
			}
			// A needed channel with no pending producer is left for
			// the atom itself to report, preserving the sequential
			// executor's error message.
			p := producer[id]
			if p == nil || p == n || seen[p] {
				continue
			}
			seen[p] = true
			n.waits++
			p.dependents = append(p.dependents, n)
		}
		if n.waits == 0 {
			ready = append(ready, n)
		}
	}
	// Atoms with no unmet dependencies have been waiting since the
	// schedule started; their queue-wait clock starts now.
	startReady := st.tr.Now()
	for _, n := range ready {
		n.readyAt = startReady
	}

	type doneMsg struct {
		n        *atomNode
		err      error
		mismatch bool // the atom's audit recorded new mismatches
	}
	// runNode executes one atom and reports how it went. Everything the
	// atom holds — its pool slot above all — is released by the time
	// runNode returns, so the dispatcher never learns of a finished atom
	// (and Run never returns) while the atom still occupies a slot.
	runNode := func(n *atomNode) doneMsg {
		if err := opts.Context.Err(); err != nil {
			return doneMsg{n: n, err: err}
		}
		// Compute atoms take a slot from the shared cross-run pool
		// (when one is set) for the duration of their execution;
		// the wait is part of the atom's queue time. Loop atoms
		// never hold a slot — their body plans' compute atoms
		// acquire their own — so slot holders cannot wait on each
		// other (see pool.go).
		if opts.Pool != nil && n.atom.Kind != engine.AtomLoop {
			if err := opts.Pool.Acquire(opts.Context); err != nil {
				return doneMsg{n: n, err: err}
			}
			defer opts.Pool.Release()
		}
		st.mu.Lock()
		before := len(st.res.Mismatches)
		st.mu.Unlock()
		var err error
		if n.atom.Kind == engine.AtomLoop {
			err = runLoop(ep, n.atom, reg, opts, st, channels, n.readyAt, iter)
		} else {
			err = runComputeAtom(n.atom, ep, reg, opts, st, channels, n.readyAt, iter)
		}
		st.mu.Lock()
		mismatch := len(st.res.Mismatches) > before
		st.mu.Unlock()
		return doneMsg{n: n, err: err, mismatch: mismatch}
	}
	doneCh := make(chan doneMsg)
	inflight, finished := 0, 0
	stopping, replan := false, false
	var firstErr error
	var failover *failoverError

	for {
		// FIFO dispatch keeps Parallelism=1 runs in the plan's
		// topological atom order — the sequential executor's behavior.
		for !stopping && inflight < opts.Parallelism && len(ready) > 0 {
			n := ready[0]
			ready = ready[1:]
			inflight++
			go func(n *atomNode) { doneCh <- runNode(n) }(n)
		}
		if inflight == 0 {
			break
		}
		m := <-doneCh
		inflight--
		if m.err != nil {
			var fe *failoverError
			switch {
			case topLevel && opts.Failover && errors.As(m.err, &fe):
				// Quiesce WITHOUT cancelling: in-flight siblings finish
				// and their outputs survive into the failover re-plan.
				// Later failover errors during the drain are subsumed by
				// it (their operators get re-planned too).
				if firstErr == nil && failover == nil {
					failover = fe
				}
			case !topLevel && opts.Failover && errors.As(m.err, &fe):
				// A loop-body atom wants failover: drain this body plan
				// uncancelled and hand the error up — the top-level
				// scheduler re-plans, loop included.
				if firstErr == nil {
					firstErr = m.err
				}
			default:
				if firstErr == nil {
					firstErr = m.err
					st.cancel() // first error wins; abort in-flight siblings
					failover = nil
				}
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
				d.readyAt = st.tr.Now()
				ready = append(ready, d)
			}
		}
		if topLevel && opts.ReOptimize && m.mismatch && !replan {
			st.mu.Lock()
			already := st.res.Reoptimized
			st.mu.Unlock()
			if !already {
				// Quiesce for re-planning: stop dispatching and let
				// the atoms already in flight drain.
				stopping = true
				replan = true
			}
		}
	}

	if firstErr != nil {
		return false, nil, firstErr
	}
	if failover != nil {
		return false, failover, nil
	}
	if replan {
		return true, nil, nil
	}
	if finished < len(nodes) {
		return false, nil, fmt.Errorf("executor: scheduler stalled after %d of %d atoms in plan %q", finished, len(nodes), ep.Physical.Name)
	}
	return false, nil, nil
}
