// Morsel-parallel forcing. A forcing that spans more than one window, with
// more than one P to run on, splits each window in two. Its head — loading
// or transposing the read set, then the filters ahead of the first column
// map — is the engine's own code, and any goroutine may run it: the heads
// are the tasks of an ordered run on engine's helper runtime, each into its
// window's slot of a ring. Its tail — the column maps, the row UDFs of a
// window without a column form, and the consumer — stays on the forcing
// goroutine and runs a window at a time in window order. So a float sum
// still folds left to right, groups are still numbered first-seen, and no
// user function of a hinted chain is ever called concurrently or in
// another sequence: the result is the serial forcing's by construction,
// and so is its first error, the context's included. A chain of un-hinted
// row UDFs is not a pipeline and has no head to hand out: its windows are
// the tasks of a plain run, whole (rows.go).

package javaengine

import (
	"sync/atomic"

	"rheem/internal/core/engine"
	"rheem/internal/data"
)

// morsels is the coordination state of one morsel-parallel forcing, kept
// with its ring on a free list: no forcing allocates it, its slots or its
// run's channels. The windows' memory is not part of it: each slot leases a
// scratch for the forcing and returns it at the end, as a serial forcing
// does, so the window memory an idle process holds is scratch.go's free
// list of scratches, not these states.
type morsels struct {
	engine.Ordered
	p     *pipeline
	ring  []slot
	slots []slot // what the kept state has grown; ring is a prefix
}

// slot is a window in flight: the scratch it goes into, leased for the
// forcing, and what its head left there.
type slot struct {
	*scratch
	sel      []int32 // the rows the head's filters kept; nil: every row
	columnar bool    // false: the window has no column form
}

// idle is the free list of forcing states: at most one per P, because a
// forcing keeps every P busy; a forcing beyond them makes its own state,
// and it is dropped. The goroutine that puts a state back — a helper that
// was the last to let go — is often not on the P of the next forcing.
var idle = engine.FreeList[morsels]{PerP: 1}

// atHead, set by tests, is called before each window's head with the
// window's index and whether a helper runs it.
var atHead atomic.Pointer[func(window int, helper bool)]

// runMorsels is run's loop over windows, morsel-parallel with up to
// workers goroutines.
func (p *pipeline) runMorsels(workers int, values bool, columns func(w *win, sel []int32) error, rows func([]data.Record) error) error {
	if err := p.ctx.Err(); err != nil {
		return err // before any helper is hired
	}
	windows := (p.size() + window - 1) / window
	m := idle.Get()
	m.p = p
	r := min(2*workers, windows)
	for len(m.slots) < r {
		m.slots = append(m.slots, slot{})
	}
	m.ring = m.slots[:r]
	for k := range m.ring {
		m.ring[k].scratch = scratches.Get()
		m.ring[k].win.prepare(p, values)
	}
	m.Start(m, windows, r, windows-1)
	var err error
	for i := 0; i < windows; i++ {
		if err = p.ctx.Err(); err != nil {
			break
		}
		if err = m.Await(i); err != nil {
			break
		}
		sl := &m.ring[i%r]
		if err = p.tail(sl.scratch, sl.sel, sl.columnar, i*window, columns, rows); err != nil {
			break
		}
	}
	m.Stop()
	return err
}

// Do runs window j's head into its slot.
func (m *morsels) Do(j int, helper bool) error {
	if f := atHead.Load(); f != nil {
		(*f)(j, helper)
	}
	sl, lo := &m.ring[j%len(m.ring)], j*window
	sl.sel, sl.columnar = m.p.head(sl.scratch, lo, min(lo+window, m.p.size()))
	return nil
}

// Release returns every slot's scratch and puts the state on the free list,
// if it has room.
func (m *morsels) Release() {
	for k := range m.ring {
		m.ring[k].scratch.release()
		m.ring[k] = slot{}
	}
	m.p, m.ring = nil, nil
	idle.Put(m)
}
