// Row windows. A run of un-hinted Map, Filter and FlatMap operators is one
// fused pass (algo.Chain): a Map, Filter or FlatMap whose output the next
// such operator of the atom reads hands it its work unevaluated, and the
// last of the run forces the chain where it is produced. Forcing cuts the
// input into windows of 4 096 rows; over two windows or more, with more
// than one P, each window is a task of a run on engine's helper runtime,
// under the one helper budget sparksim's stages and the hinted forcings
// share. Outputs keep input order whichever goroutine made them:
//
//   - a chain of Maps writes each window's outputs into that window's slots
//     of one n-record slice;
//   - a chain with a Filter does the same, then compacts the survivors
//     window after window;
//   - a chain with a FlatMap builds each window's outputs in a leased
//     buffer, then copies them once into an exactly sized slice.
//
// The first failure in window order is the one reported, and a helper's
// panic is raised again on the forcing goroutine (engine.HelperPanic). At
// GOMAXPROCS 1, or under two windows, the same loop runs the windows on
// the forcing goroutine. Where the output may leave the atom, each window
// counts its outputs' Bytes as it makes them, so the exit's channel is not
// walked again. A UDF placed here may therefore be called concurrently on
// different data quanta.

package javaengine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"rheem/internal/core/algo"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// atRowWindow, set by tests, is called before each row window with the
// window's index and whether a helper runs it.
var atRowWindow atomic.Pointer[func(window int, helper bool)]

// rowChain is a run of un-hinted narrow operators over in: unevaluated
// while one of them hands it to the next, then forced, a window at a time,
// by the last.
type rowChain struct {
	ctx   context.Context
	in    []data.Record
	chain algo.Chain
	first [1]algo.Link // a one-operator chain's storage
	count bool         // whether a forcing counts its outputs' Bytes
	// What a forcing's windows made, by window.
	expands bool
	out     []data.Record    // in the windows' slots, unless the chain expands
	bufs    []*[]data.Record // in a leased buffer a window, if it does
	kept    []int            // outputs
	sizes   []int64          // their Bytes
}

// counted is rows whose Bytes are known: a forced chain's output, from
// which an exit's channel takes its Bytes.
type counted struct {
	recs  []data.Record
	bytes int64
}

// execRows runs an un-hinted Map, Filter or FlatMap: it extends the chain
// its input is, or starts one over its input's rows, and forces it unless
// the next operator of the chain reads it.
func (d *datasetOps) execRows(ctx context.Context, op *physical.Operator, in any) (any, error) {
	c := &rowChain{ctx: ctx}
	if prev, ok := in.(*rowChain); ok {
		c.in, c.chain = prev.in, prev.chain.Then(op.Logical)
	} else {
		recs, err := rowsOf(ctx, in)
		if err != nil {
			return nil, err
		}
		c.first[0] = algo.LinkOf(op.Logical)
		c.in, c.chain = recs, c.first[:]
	}
	// Only what may leave the atom counts its bytes: an exit, an output
	// read twice, one a sink hands on.
	c.count = true
	if d.atom != nil {
		switch r := d.atom.Reader(op); {
		case r == nil:
		case algo.Narrow(r.Logical) && !hinted(r.Logical):
			return c, nil
		default:
			c.count = r.Kind() == plan.KindSink
		}
	}
	recs, bytes, err := c.force()
	switch {
	case err != nil:
		return nil, err
	case c.count:
		return counted{recs, bytes}, nil
	}
	return recs, nil
}

// force runs the chain and returns its outputs, in input order, with their
// Bytes.
func (c *rowChain) force() ([]data.Record, int64, error) {
	n := len(c.in)
	windows := (n + window - 1) / window
	c.expands = c.chain.Expands()
	if c.expands {
		c.bufs = make([]*[]data.Record, windows)
	} else {
		c.out = make([]data.Record, n)
	}
	c.kept, c.sizes = make([]int, windows), make([]int64, windows)
	var err error
	if windows < 2 || runtime.GOMAXPROCS(0) == 1 {
		for w := 0; w < windows && err == nil; w++ {
			err = c.window(w, false)
		}
	} else {
		err = engine.Run(windows, windows-1, c.window)
	}
	total, bytes := 0, int64(0)
	for w := range c.kept {
		total += c.kept[w]
		bytes += c.sizes[w]
	}
	out := c.out
	if c.expands {
		if err == nil {
			out = make([]data.Record, 0, total)
		}
		for _, b := range c.bufs {
			if b == nil {
				continue
			}
			if err == nil {
				out = append(out, *b...)
			}
			releaseRows(b)
		}
	} else if err == nil && total < n {
		k := c.kept[0]
		for w := 1; w < windows; w++ {
			k += copy(out[k:], out[w*window:w*window+c.kept[w]])
		}
		clear(out[k:])
		out = out[:k]
	}
	if err != nil {
		return nil, 0, err
	}
	return out, bytes, nil
}

// window runs the chain over window w: into its slots of out, or into a
// leased buffer.
func (c *rowChain) window(w int, helper bool) error {
	if h := atRowWindow.Load(); h != nil {
		(*h)(w, helper)
	}
	if err := c.ctx.Err(); err != nil {
		return err
	}
	lo, hi := w*window, min((w+1)*window, len(c.in))
	var dst []data.Record
	if c.expands {
		c.bufs[w] = leaseRows()
		dst = *c.bufs[w]
	} else {
		dst = c.out[lo:lo:hi]
	}
	dst, size, err := c.chain.Append(dst, c.in[lo:hi], c.count)
	if c.expands {
		*c.bufs[w] = dst
	}
	c.kept[w], c.sizes[w] = len(dst), size
	return err
}

// rowBufs holds the buffers a FlatMap's windows are built in. It stays a
// sync.Pool, not an engine.FreeList: every helper of a chain leases and
// releases one a window, all at once, which a pool's per-P caches serve
// without a lock; and a buffer holds up to four windows of records, which
// the collector should have back once no job runs a FlatMap.
var rowBufs = sync.Pool{New: func() any { return new([]data.Record) }}

func leaseRows() *[]data.Record { return rowBufs.Get().(*[]data.Record) }

// releaseRows returns a window's buffer emptied, with no reference into the
// job left in it; one a window grew past 4 windows' worth is dropped.
func releaseRows(b *[]data.Record) {
	if cap(*b) > 4*window {
		return
	}
	clear((*b)[:cap(*b)])
	*b = (*b)[:0]
	rowBufs.Put(b)
}
