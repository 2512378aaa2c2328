// The shared scheduler pool. A one-shot Run bounds its own atom
// concurrency with Options.Parallelism, but a long-running job service
// executes many plans at once — without a cross-run bound, N jobs ×
// Parallelism workers each would oversubscribe the host exactly when
// load is highest. A Pool is that bound: one fixed set of execution
// slots shared by every run that carries it in Options.Pool.
//
// Slot discipline: only atoms hold slots — what actually occupies a
// platform — and only while they execute. A compute atom blocks for
// its slot before it starts, holding nothing. Loop atoms never hold one
// — their body plans' compute atoms acquire slots themselves. So no
// slot holder ever waits for another slot, and the pool cannot
// deadlock, no matter how small it is relative to plan depth or how
// many runs share it. Parallelism inside an atom is the platform's,
// on engine's helper runtime, and takes no slot.

package executor

import "context"

// Pool is a bounded set of execution slots, shared across concurrent
// runs when it is their Options.Pool. The zero value is unusable;
// construct with NewPool. All methods are safe for concurrent use.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool with n slots (n < 1 selects 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning the
// context error in the latter case. An atom waits before its span
// starts, so the time is its queue wait, not its execution latency.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken with Acquire.
func (p *Pool) Release() { <-p.sem }

// Size returns the pool's slot count.
func (p *Pool) Size() int { return cap(p.sem) }

// InUse returns how many slots are currently held — the live
// cross-run execution concurrency, exported as a service gauge.
func (p *Pool) InUse() int { return len(p.sem) }
