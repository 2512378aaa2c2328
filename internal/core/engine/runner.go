package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"rheem/internal/core/channel"
	"rheem/internal/core/physical"
)

// DatasetOps is what a platform supplies to the generic atom runner:
// how to bring external channels into its native dataset type, how to
// export a native dataset as a channel, and how to execute one
// physical operator on native datasets. All three bundled platforms
// run atoms through RunAtom with their own DatasetOps, so the
// topological bookkeeping lives in exactly one place.
type DatasetOps interface {
	// FromChannel imports a native-format channel as a native dataset.
	FromChannel(ch *channel.Channel) (any, error)
	// ToChannel exports a native dataset as a native-format channel.
	ToChannel(ds any) (*channel.Channel, error)
	// ExecOp executes one physical operator over native datasets.
	ExecOp(ctx context.Context, op *physical.Operator, inputs []any) (any, error)
}

// RunAtom executes a compute atom's operators in order, tracking
// intermediate native datasets, and exports the exits. It returns the
// exit channels by position: exits[i] is atom.Exits[i]'s, as AtomInputs
// is indexed by position in atom.Ops.
//
// A panic anywhere below it — a UDF indexing past its record, a kernel
// bug, on any platform — is recovered here, once per atom, and returned
// as a Fatal error carrying the operator that was running and the stack:
// atoms run on scheduler goroutines, where an unrecovered panic would
// take down the process and every other job in it. It is deterministic
// like any operator error, so it is never retried or failed over. The
// operator named is the one executing when the panic surfaced; where a
// platform evaluates lazily that is the operator (or exit) that forced
// the work, and the stack shows the stage that failed.
func RunAtom(ctx context.Context, d DatasetOps, atom *TaskAtom, inputs AtomInputs) (exits []*channel.Channel, err error) {
	if atom.Kind != AtomCompute {
		return nil, fmt.Errorf("engine: RunAtom on %v atom", atom.Kind)
	}
	var running *physical.Operator
	defer func() {
		if r := recover(); r != nil {
			exits, err = nil, Fatal(fmt.Errorf("engine: atom#%d: %s panicked: %v\n%s", atom.ID, running.Name(), r, debug.Stack()))
		}
	}()
	// One backing array per atom, whatever its width: every operator's
	// native dataset by its position in atom.Ops, then every operator's
	// input list.
	n, edges := len(atom.Ops), 0
	for _, op := range atom.Ops {
		edges += len(op.Inputs)
	}
	buf := make([]any, n+edges)
	native, free := buf[:n:n], buf[n:]
	for i, op := range atom.Ops {
		running = op
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := len(op.Inputs)
		ins := free[:k:k]
		free = free[k:]
		for slot, in := range op.Inputs {
			if j := atom.position(in.ID); j >= 0 {
				if j >= i {
					return nil, fmt.Errorf("engine: atom#%d: %s needs %s before it ran", atom.ID, op.Name(), in.Name())
				}
				ins[slot] = native[j]
				continue
			}
			ch := inputs.Channel(i, slot)
			if ch == nil {
				return nil, fmt.Errorf("engine: atom#%d: %s slot %d has no external channel", atom.ID, op.Name(), slot)
			}
			ds, err := d.FromChannel(ch)
			if err != nil {
				return nil, fmt.Errorf("engine: atom#%d: import for %s: %w", atom.ID, op.Name(), err)
			}
			ins[slot] = ds
		}
		out, err := d.ExecOp(ctx, op, ins)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			// Operator execution is deterministic — a UDF or kernel
			// error would recur on any platform, so mark it Fatal: the
			// executor must not retry or fail over.
			return nil, Fatal(fmt.Errorf("engine: atom#%d: %s: %w", atom.ID, op.Name(), err))
		}
		native[i] = out
	}
	exits = make([]*channel.Channel, len(atom.Exits))
	for i, ex := range atom.Exits {
		running = ex
		j := atom.position(ex.ID)
		if j < 0 {
			return nil, fmt.Errorf("engine: atom#%d: exit %s never executed", atom.ID, ex.Name())
		}
		ch, err := d.ToChannel(native[j])
		if err != nil {
			return nil, fmt.Errorf("engine: atom#%d: export of %s: %w", atom.ID, ex.Name(), err)
		}
		exits[i] = ch
	}
	return exits, nil
}
