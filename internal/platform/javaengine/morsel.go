// Morsel-parallel forcing. A forcing that spans more than one window, with
// more than one P to run on, splits each window in two. Its head — loading
// or transposing the read set, then the filters ahead of the first column
// map — is the engine's own code, and any goroutine may run it: the forcing
// goroutine and up to GOMAXPROCS−1 helpers claim windows from one counter,
// each into its own slot of a ring. Its tail — the column maps, the row UDFs
// of a window without a column form, and the consumer — stays on the
// forcing goroutine and runs a window at a time in window order. So a float
// sum still folds left to right, groups are still numbered first-seen, and
// no user function is ever called concurrently or in another sequence: the
// result is the serial forcing's by construction.
//
// Nothing here waits for a helper to be free. The forcing goroutine hands a
// helper its forcing with a try-send, starts one only while fewer than
// GOMAXPROCS−1 exist, and otherwise produces the windows itself; when the
// window it needs next is in a helper's hands it produces later ones until
// none is left to claim, and only then waits — for a head already running,
// which waits on nothing. A helper that finds the ring full detaches rather
// than wait for the forcing goroutine to consume, and is sent again once a
// slot is free. Whoever of the forcing goroutine and its helpers detaches
// last releases the state, and a helper that wakes only after the forcing
// ended attaches to nothing (ticket), so the end of a forcing waits for no
// helper either, and its state is free for the next. That is
// executor.Pool's rule: no slot holder waits for another slot. A blocking handoff would deadlock two forcings that each
// hold a helper the other's consumer is waiting for.
//
// A head's panic is caught with its window and the stack it was raised on,
// and raised again on the forcing goroutine at that window's turn, so
// engine.RunAtom recovers what the serial forcing would have raised and
// reports the head's frames as well as its own. An error, the context's
// included, is the first in window order, because the tails run in that
// order.

package javaengine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rheem/internal/core/engine"
	"rheem/internal/data"
)

// helpers is the process's set of parked helper goroutines, started lazily:
// at most GOMAXPROCS−1 (the highest it has been). An idle helper is blocked
// receiving on work. Helpers live as long as the process, as the runtime's
// own workers do: nothing waits for one to exit, and a parked one costs a
// stack.
var helpers = struct {
	work    chan ticket
	started atomic.Int32
}{work: make(chan ticket)}

// ticket hands a helper a forcing: its state and the generation the state
// had when the ticket was made.
type ticket struct {
	m   *morsels
	gen uint32
}

// morsels is the coordination state of one morsel-parallel forcing, kept
// with its ring on a free list: no forcing allocates it, its slots or its
// channels. The windows' memory is not part of it: each slot leases a
// scratch for the forcing and returns it at the end, as a serial forcing
// does, so an idle process holds no window memory here.
// Window j goes into slot j % len(ring); windows are claimed in order from
// next, and none at or past limit — the ring's length past the window being
// consumed, 0 once the forcing has stopped — so a slot is claimed only
// after the forcing goroutine has consumed what it held.
type morsels struct {
	p       *pipeline
	workers int
	next    atomic.Int64
	limit   atomic.Int64
	// refs counts, in its low 32 bits, who holds the state: the forcing
	// goroutine and every helper attached. Its high 32 bits are the state's
	// generation, which the last one out advances as it releases the
	// state, so a ticket made for a forcing that has ended attaches to
	// nothing, whatever the state serves by the time a helper takes it up.
	// A helper handed a ticket it has not yet taken up holds nothing: a
	// forcing that ends before its helpers wake releases its state itself.
	refs  atomic.Uint64
	gen   uint32 // this forcing's generation
	ring  []*slot
	slots []*slot // what the kept state has grown; ring is a prefix
}

// slot is a window in flight: the scratch it goes into, leased for the
// forcing, what its head left there, and the signal that the head is done.
type slot struct {
	*scratch
	sel      []int32             // the rows the head's filters kept; nil: every row
	columnar bool                // false: the window has no column form
	panicked *engine.HelperPanic // raised at the window's turn
	ready    chan struct{}
}

// idle is the free list of forcing states: at most one per P, because a
// forcing keeps every P busy, so no more than GOMAXPROCS run at once
// without queueing for the CPU; a forcing beyond them makes its own state,
// and it is dropped. A kept state is its ring's slot headers and
// channels, ≈ 170 B a slot, and nothing of the windows. It is not a
// sync.Pool: a pool keeps what is put back on the P that put it, and a
// forcing goroutine that has since moved to another P — or a helper that
// was the last to detach — would leave the next forcing to allocate its
// state again.
var idle struct {
	sync.Mutex
	states []*morsels
}

// atHead, set by tests, is called before each window's head with the
// window's index and whether a helper runs it.
var atHead atomic.Pointer[func(window int, helper bool)]

// runMorsels is run's loop over windows, morsel-parallel with up to
// workers goroutines.
func (p *pipeline) runMorsels(workers int, values bool, columns func(w *win, sel []int32) error, rows func([]data.Record) error) error {
	if err := p.ctx.Err(); err != nil {
		return err // before any helper is sent
	}
	windows := (p.size() + window - 1) / window
	var m *morsels
	idle.Lock()
	if n := len(idle.states); n > 0 {
		m = idle.states[n-1]
		idle.states = idle.states[:n-1]
	}
	idle.Unlock()
	if m == nil {
		m = new(morsels)
	}
	m.p, m.workers = p, workers
	want, r := min(workers, windows)-1, min(2*workers, windows) // helpers, slots
	for len(m.slots) < r {
		m.slots = append(m.slots, &slot{ready: make(chan struct{}, 1)})
	}
	m.ring = m.slots[:r]
	for _, sl := range m.ring {
		sl.scratch = lease()
		sl.win.prepare(p, values)
	}
	m.next.Store(0)
	m.limit.Store(int64(r))
	m.gen = uint32(m.refs.Add(1) >> 32)
	for k := 0; k < want; k++ {
		if !m.dispatch() {
			break
		}
	}
	var err error
	for i := 0; i < windows; i++ {
		if err = p.ctx.Err(); err != nil {
			break
		}
		sl := m.await(i)
		if v := sl.panicked; v != nil {
			m.limit.Store(0) // the state and its leases are dropped with the panic
			panic(v)
		}
		if err = p.tail(sl.scratch, sl.sel, sl.columnar, i*window, columns, rows); err != nil {
			break
		}
		m.limit.Store(int64(min(windows, i+1+r)))
		if int(uint32(m.refs.Load())) <= want && m.next.Load() < m.limit.Load() {
			m.dispatch()
		}
	}
	m.limit.Store(0)
	m.detach()
	return err
}

// await returns the slot of window i once its head is done. It produces
// windows itself — i first, if nobody has claimed it — as long as any is
// left to claim, and waits only for a head a helper is running.
func (m *morsels) await(i int) *slot {
	sl := m.ring[i%len(m.ring)]
	for {
		select {
		case <-sl.ready:
			return sl
		default:
		}
		j, ok := m.claim()
		if !ok {
			<-sl.ready
			return sl
		}
		m.produce(j, false)
	}
}

// claim takes the next window that may be claimed, if there is one.
func (m *morsels) claim() (int, bool) {
	for {
		j := m.next.Load()
		if j >= m.limit.Load() {
			return 0, false
		}
		if m.next.CompareAndSwap(j, j+1) {
			return int(j), true
		}
	}
}

// produce runs window j's head into its slot and signals it, a panic
// included.
func (m *morsels) produce(j int, helper bool) {
	sl := m.ring[j%len(m.ring)]
	defer func() {
		if v := recover(); v != nil {
			sl.panicked = engine.NewHelperPanic(v)
		}
		sl.ready <- struct{}{}
	}()
	sl.panicked = nil
	if f := atHead.Load(); f != nil {
		(*f)(j, helper)
	}
	lo := j * window
	sl.sel, sl.columnar = m.p.head(sl.scratch, lo, min(lo+window, m.p.size()))
}

// dispatch hands the forcing to a helper: an idle one, or a new one while
// there are fewer than workers−1. It never waits.
func (m *morsels) dispatch() bool {
	t := ticket{m, m.gen}
	select {
	case helpers.work <- t:
		return true
	default:
	}
	if n := helpers.started.Load(); int(n) < m.workers-1 && helpers.started.CompareAndSwap(n, n+1) {
		go help(t)
		return true
	}
	return false
}

// help is a helper's life: it attaches to the forcing of each ticket it is
// handed, unless that has ended, produces the windows it can claim,
// detaches, and parks until the next ticket.
func help(t ticket) {
	for {
		if m := t.m; t.attach() {
			for {
				j, ok := m.claim()
				if !ok {
					break
				}
				m.produce(j, true)
			}
			m.detach()
		}
		t = <-helpers.work
	}
}

// attach takes a reference to t's forcing if it is still the one its state
// serves.
func (t ticket) attach() bool {
	for {
		r := t.m.refs.Load()
		if uint32(r>>32) != t.gen {
			return false
		}
		if t.m.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// detach drops a reference to the forcing; the last one out advances the
// generation and releases the state.
func (m *morsels) detach() {
	for {
		r := m.refs.Load()
		next := r - 1
		if uint32(next) == 0 {
			next += 1 << 32
		}
		if m.refs.CompareAndSwap(r, next) {
			if uint32(next) == 0 {
				m.release()
			}
			return
		}
	}
}

// release empties the ring of signals no tail took, returns every slot's
// scratch and puts the state on the free list, if it has room.
func (m *morsels) release() {
	for _, sl := range m.ring {
		select {
		case <-sl.ready:
		default:
		}
		sl.scratch.release()
		sl.scratch, sl.sel, sl.panicked = nil, nil, nil
	}
	m.p, m.ring = nil, nil
	idle.Lock()
	if len(idle.states) < runtime.GOMAXPROCS(0) {
		idle.states = append(idle.states, m)
	}
	idle.Unlock()
}
