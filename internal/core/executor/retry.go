package executor

import (
	"context"
	"fmt"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
)

// maxRetryBackoff caps the exponential retry delay.
const maxRetryBackoff = 2 * time.Second

// failoverError marks an atom failure that should trigger a
// cross-platform failover instead of failing the run: its platform
// exhausted the retry budget while quarantined by the health tracker.
// The top-level scheduler catches it (errors.As) and re-plans.
type failoverError struct {
	atom *engine.TaskAtom // the failed execution; its Platform is the one to quarantine
	err  error
}

func (e *failoverError) Error() string { return e.err.Error() }
func (e *failoverError) Unwrap() error { return e.err }

// attempt runs one execution attempt of an atom, bounding it with
// Options.AtomTimeout when set. The deadline is per attempt: a retry
// gets a fresh budget.
func (p *planScope) attempt(platform engine.Platform, atom *engine.TaskAtom, inputs engine.AtomInputs) (exits []*channel.Channel, m engine.Metrics, err error) {
	ctx := p.ctx
	if p.opts.AtomTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.AtomTimeout)
		defer cancel()
	}
	exits, m, err = platform.ExecuteAtom(ctx, atom, inputs)
	if err != nil && ctx.Err() != nil && p.ctx.Err() == nil {
		// The attempt deadline (not the run) expired: surface it as a
		// retryable attempt failure rather than a bare context error.
		err = fmt.Errorf("executor: %s exceeded atom timeout %v: %w", atom, p.opts.AtomTimeout, err)
	}
	return exits, m, err
}

// backoff waits before re-executing a failed atom: exponential (base
// doubling per attempt, capped) with deterministic jitter in [d/2, d]
// derived from the atom ID and attempt number, so retry storms
// de-synchronize without making runs irreproducible. Returns the
// context error if the run is cancelled while waiting.
func (r *run) backoff(atomID, attempt int) error {
	d := backoffDelay(r.opts.RetryBackoff, atomID, attempt)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.ctx.Done():
		return r.ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoffDelay computes the wait before re-executing: base << attempt,
// capped, jittered deterministically into [d/2, d].
func backoffDelay(base time.Duration, atomID, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(attempt)
	if d > maxRetryBackoff || d <= 0 { // overflow-safe
		d = maxRetryBackoff
	}
	h := splitmix64(uint64(atomID)<<32 ^ uint64(attempt))
	return d/2 + time.Duration(h%uint64(d/2+1))
}

// splitmix64 is the SplitMix64 mixer: a tiny, dependency-free hash
// giving the backoff a deterministic jitter source.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
