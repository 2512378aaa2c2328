// Package fault is a reusable, deterministic fault-injection layer for
// engine platforms. It wraps any engine.Platform and injects failures
// and latency according to seeded, reproducible schedules — the test
// harness for the executor's "coping with failures" duty (paper §4.2)
// and for the chaos experiments (E9).
//
// A schedule decides per execution attempt whether to fail; because
// schedules key off deterministic call counters (per-atom and global)
// and the jitter source is a seeded hash, a chaos run replays
// identically: same plan, same schedule, same failures. Injected
// errors are plain (never engine.Fatal), so the executor's retry,
// circuit-breaker, and failover machinery engages exactly as it would
// for a real environmental failure.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
)

// ErrInjected is the default injected failure cause.
var ErrInjected = errors.New("fault: injected failure")

// ErrKilled is the cause used by Kill when none is given: the platform
// is gone (a crashed cluster, an unreachable service) and every
// execution on it fails until Revive.
var ErrKilled = errors.New("fault: platform killed")

// Schedule decides whether one execution attempt fails. atomCall is
// the 1-based count of executions of this particular atom (retries
// included); totalCall is the 1-based count of executions across the
// whole platform. Implementations must be pure functions of their
// arguments so runs replay deterministically.
type Schedule interface {
	Fail(atom *engine.TaskAtom, atomCall, totalCall int) error
}

type scheduleFunc func(atom *engine.TaskAtom, atomCall, totalCall int) error

func (f scheduleFunc) Fail(atom *engine.TaskAtom, atomCall, totalCall int) error {
	return f(atom, atomCall, totalCall)
}

func orInjected(err error) error {
	if err == nil {
		return ErrInjected
	}
	return err
}

// FailFirstN fails the first n execution attempts of every atom — the
// classic transient-failure schedule: an atom succeeds once the retry
// budget outlasts n. A nil err injects ErrInjected.
func FailFirstN(n int, err error) Schedule {
	cause := orInjected(err)
	return scheduleFunc(func(_ *engine.TaskAtom, atomCall, _ int) error {
		if atomCall <= n {
			return cause
		}
		return nil
	})
}

// FailEveryKth fails every k-th execution across the platform (k ≥ 1):
// a periodic fault that spreads over atoms and retries.
func FailEveryKth(k int, err error) Schedule {
	cause := orInjected(err)
	return scheduleFunc(func(_ *engine.TaskAtom, _, totalCall int) error {
		if k >= 1 && totalCall%k == 0 {
			return cause
		}
		return nil
	})
}

// FailAfterN lets the first n executions succeed and fails every one
// after them — the "platform dies mid-run" schedule behind the chaos
// tests: deterministic, no clocks or monitors involved.
func FailAfterN(n int, err error) Schedule {
	cause := orInjected(err)
	return scheduleFunc(func(_ *engine.TaskAtom, _, totalCall int) error {
		if totalCall > n {
			return cause
		}
		return nil
	})
}

// FailMatching fails every execution of atoms the predicate selects —
// e.g. only the atoms of one operator kind, or one atom ID.
func FailMatching(pred func(*engine.TaskAtom) bool, err error) Schedule {
	cause := orInjected(err)
	return scheduleFunc(func(atom *engine.TaskAtom, _, _ int) error {
		if pred(atom) {
			return cause
		}
		return nil
	})
}

// Options configures a wrapped platform.
type Options struct {
	// ID overrides the wrapper's platform identifier; empty keeps the
	// inner platform's ID (useful when the wrapper replaces the real
	// platform in a registry).
	ID engine.PlatformID
	// Schedules are consulted in order before every delegation; the
	// first non-nil error is injected.
	Schedules []Schedule
	// Latency is added before every execution attempt (after the
	// injection decision is made it still applies to failures — a dying
	// call burns time too). The sleep honors context cancellation.
	Latency time.Duration
	// LatencyJitter adds a deterministic per-call jitter in
	// [0, LatencyJitter), derived from Seed, the atom ID and the call
	// number — reproducible "noisy cluster" timing.
	LatencyJitter time.Duration
	// Seed seeds the jitter hash (default 1).
	Seed uint64
}

// Stats counts what the injector did. Cancelled counts executions that
// observed context cancellation during injected latency.
type Stats struct {
	Calls     int // execution attempts seen
	Injected  int // failures injected by schedules or Kill
	Cancelled int // latency sleeps cut short by context cancellation
}

// Platform wraps an inner engine.Platform with fault injection. It
// satisfies engine.Platform and is safe for concurrent use, matching
// the executor's ExecuteAtom contract.
type Platform struct {
	inner engine.Platform
	opts  Options

	mu        sync.Mutex
	killed    bool
	killCause error
	atomCalls map[int]int
	total     int
	stats     Stats
}

// Wrap builds a fault-injecting wrapper around inner.
func Wrap(inner engine.Platform, opts Options) *Platform {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Platform{inner: inner, opts: opts, atomCalls: map[int]int{}}
}

// Register registers the wrapper in reg and clones the operator
// mappings of donor onto the wrapper's ID, so the optimizer can assign
// work to it. Use the inner platform's ID as donor when the wrapper
// shadows a registered platform of the same family.
func Register(reg *engine.Registry, p *Platform, donor engine.PlatformID) error {
	if err := reg.RegisterPlatform(p); err != nil {
		return err
	}
	if donor == p.ID() {
		return nil // wrapper replaces the donor; mappings already target its ID
	}
	return reg.CloneMappings(donor, p.ID())
}

// ID implements engine.Platform.
func (p *Platform) ID() engine.PlatformID {
	if p.opts.ID != "" {
		return p.opts.ID
	}
	return p.inner.ID()
}

// NativeFormat implements engine.Platform.
func (p *Platform) NativeFormat() channel.Format { return p.inner.NativeFormat() }

// RegisterConverters implements engine.Platform.
func (p *Platform) RegisterConverters(reg *channel.Registry) { p.inner.RegisterConverters(reg) }

// Kill marks the platform dead: every subsequent execution fails with
// cause (ErrKilled if nil) until Revive. Schedules express planned
// failure patterns; Kill is the manual chaos switch.
func (p *Platform) Kill(cause error) {
	if cause == nil {
		cause = ErrKilled
	}
	p.mu.Lock()
	p.killed, p.killCause = true, cause
	p.mu.Unlock()
}

// Revive clears a Kill.
func (p *Platform) Revive() {
	p.mu.Lock()
	p.killed = false
	p.mu.Unlock()
}

// Stats returns a snapshot of the injector's counters.
func (p *Platform) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// CallsFor returns how many executions of the atom were attempted.
func (p *Platform) CallsFor(atomID int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.atomCalls[atomID]
}

// ExecuteAtom implements engine.Platform: it applies latency, then the
// kill switch and the failure schedules, then delegates to the inner
// platform. Injected failures report Metrics{Jobs: 1} — a failed job
// submission still happened.
func (p *Platform) ExecuteAtom(ctx context.Context, atom *engine.TaskAtom, inputs engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	p.mu.Lock()
	p.stats.Calls++
	p.atomCalls[atom.ID]++
	atomCall := p.atomCalls[atom.ID]
	p.total++
	totalCall := p.total
	killed, killCause := p.killed, p.killCause
	p.mu.Unlock()

	if d := p.delay(atom.ID, totalCall); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			p.mu.Lock()
			p.stats.Cancelled++
			p.mu.Unlock()
			return nil, engine.Metrics{}, ctx.Err()
		case <-t.C:
		}
	}

	var cause error
	if killed {
		cause = killCause
	} else {
		for _, s := range p.opts.Schedules {
			if err := s.Fail(atom, atomCall, totalCall); err != nil {
				cause = err
				break
			}
		}
	}
	if cause != nil {
		p.mu.Lock()
		p.stats.Injected++
		p.mu.Unlock()
		return nil, engine.Metrics{Jobs: 1}, fmt.Errorf("fault: %s on %s: %w", atom, p.ID(), cause)
	}
	return p.inner.ExecuteAtom(ctx, atom, inputs)
}

// delay computes the injected latency for one call: the fixed Latency
// plus a deterministic jitter drawn from a seeded hash of (atom, call).
func (p *Platform) delay(atomID, call int) time.Duration {
	d := p.opts.Latency
	if j := p.opts.LatencyJitter; j > 0 {
		h := splitmix64(p.opts.Seed ^ uint64(atomID)<<32 ^ uint64(call))
		d += time.Duration(h % uint64(j))
	}
	return d
}

// splitmix64 is the SplitMix64 mixer — a tiny, well-distributed,
// dependency-free hash for deterministic jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
