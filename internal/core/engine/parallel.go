// The helper runtime: the process's one set of helper goroutines, to
// which every parallel platform hands its tasks — javaengine a forcing's
// window heads, sparksim a stage's partitions. A run's caller and its
// helpers claim tasks 0 … n−1 in order, and the caller takes their results
// in order, so the failure it meets is the first in index order whichever
// goroutine met it. A task's panic is raised again on the caller at the
// task's turn, with the stack it was raised on.
//
// At most min(GOMAXPROCS, NumCPU)−1 helpers are in flight in the process
// (budget), whichever runs they serve: a helper beyond the cores could not
// run beside the caller and the others, so a hand-off to it would only
// cost. Nothing waits for one to be free: a caller that finds the budget
// spent runs its tasks itself, and when the task it needs next is in a
// helper's hands it runs later ones until none is left to claim, and only
// then waits, for a task already running. A blocking handoff would
// deadlock two runs that each hold a helper the other's caller is waiting
// for; that is executor.Pool's rule too.

package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// helpers is the process's set of parked helper goroutines, started
// lazily. A hire leaves its ticket in work only for a free helper, parked
// or not yet, so work never holds more tickets than the budget.
var helpers = struct {
	work    chan ticket
	started atomic.Int32 // goroutines in the set: at most the highest budget seen
	busy    atomic.Int32 // helpers handed a run and not back yet: the budget
}{work: make(chan ticket, 256)}

// HelperTask, set by tests, keeps task i for a helper while (*HelperTask)(i)
// and the budget is not 0: a run's caller hires helpers until one has
// claimed it.
var HelperTask atomic.Pointer[func(task int) bool]

// budget is how many helpers may be in flight: one fewer than the cores the
// process may run on at once, which are GOMAXPROCS or the machine's CPUs,
// whichever are fewer.
func budget() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) - 1 }

// Helpers reports how many helpers are in flight and how many there are.
func Helpers() (inFlight, started int) {
	return int(helpers.busy.Load()), int(helpers.started.Load())
}

// ticket hands a helper a run: its state, and the generation the state
// had when the ticket was made.
type ticket struct {
	o   *Ordered
	gen uint32
}

// HelperPanic is a task's panic, raised again on the run's caller: the
// value and the stack it was raised on. Its text is the value's, so the
// Fatal RunAtom makes of it reads as on one goroutine, then that stack.
type HelperPanic struct {
	V     any
	Stack []byte
}

func (p *HelperPanic) String() string {
	return fmt.Sprintf("%v\n\nhelper's goroutine:\n%s", p.V, p.Stack)
}

// Tasks is what a run runs.
type Tasks interface {
	// Do runs task i; helper says whether a helper claimed it.
	Do(i int, helper bool) error
	// Release is called once the run has stopped and nothing holds it.
	Release()
}

// Ordered is a run whose caller takes task i's result from its place in a
// ring, which no task len(ring) later is claimed into before the caller
// asks for that task. A caller may keep it on a free list: whoever of the
// caller and its helpers lets go last releases it, so the end of a run
// waits for no helper, and a ticket of an ended run attaches to nothing.
type Ordered struct {
	tasks    Tasks
	n, want  int
	next     atomic.Int64
	limit    atomic.Int64 // no task at or past it is claimed; 0 once stopped
	failedAt atomic.Int64 // a task that failed, the lowest or near it; n: none did
	// refs counts, in its low 32 bits, the caller and every helper attached;
	// its high 32 bits are the generation, which the last one out advances.
	refs  atomic.Uint64
	gen   uint32
	ring  []turn // task i's is ring[i % len(ring)]
	turns []turn // what the kept state has grown; ring is a prefix
}

// turn is a task in flight: how it ended, and the signal that it has.
type turn struct {
	err      error
	panicked *HelperPanic
	done     chan struct{}
}

// Start begins a run of tasks 0 … n−1 over a ring of ahead places and
// hands it to up to want helpers — never more than the budget — as many as
// it has free.
func (o *Ordered) Start(tasks Tasks, n, ahead, want int) {
	o.tasks, o.n, o.want = tasks, n, min(want, budget())
	for len(o.turns) < ahead {
		o.turns = append(o.turns, turn{done: make(chan struct{}, 1)})
	}
	o.ring = o.turns[:ahead]
	o.next.Store(0)
	o.limit.Store(int64(ahead))
	o.failedAt.Store(int64(n))
	o.gen = uint32(o.refs.Add(1) >> 32)
	for k := 0; k < o.want && o.hire(); k++ {
	}
}

// Await returns task i's error once it is done, or raises its panic; task
// i−1's place may now take task i−1+len(ring). Until task i is done the
// caller runs tasks itself, while any may be claimed.
func (o *Ordered) Await(i int) error {
	o.limit.Store(int64(min(o.n, i+len(o.ring))))
	t := o.wait(i)
	if t.panicked != nil {
		o.limit.Store(0) // the state is dropped with the panic
		panic(t.panicked)
	}
	return t.err
}

// wait returns task i's turn once it is done. Past task 0 it first hires
// one more helper if fewer than want hold the run and a task may be claimed.
func (o *Ordered) wait(i int) *turn {
	if i > 0 && int(uint32(o.refs.Load())) <= o.want && o.next.Load() < o.limit.Load() {
		o.hire()
	}
	t := &o.ring[i%len(o.ring)]
	for {
		select {
		case <-t.done:
			return t
		default:
		}
		j, ok := o.claim(false)
		if !ok {
			<-t.done
			return t
		}
		o.do(j, false)
	}
}

// Stop ends the caller's part in the run: nothing more is claimed.
func (o *Ordered) Stop() {
	o.limit.Store(0)
	o.detach()
}

func (o *Ordered) claim(helper bool) (int, bool) {
	for {
		j := o.next.Load()
		if j >= o.limit.Load() {
			return 0, false
		}
		if f := HelperTask.Load(); !helper && f != nil && budget() > 0 && (*f)(int(j)) {
			o.hire()
			runtime.Gosched()
			continue
		}
		if o.next.CompareAndSwap(j, j+1) {
			return int(j), true
		}
	}
}

// do runs task i, unless one before it failed, and signals that it is
// done.
func (o *Ordered) do(i int, helper bool) {
	t := &o.ring[i%len(o.ring)]
	t.err, t.panicked = nil, nil
	defer func() {
		if v := recover(); v != nil {
			t.panicked = &HelperPanic{v, debug.Stack()}
		}
		if (t.err != nil || t.panicked != nil) && int64(i) < o.failedAt.Load() {
			o.failedAt.Store(int64(i)) // racing a lower one may lose it: fewer skips, never a wrong one
		}
		t.done <- struct{}{}
	}()
	if int64(i) < o.failedAt.Load() {
		t.err = o.tasks.Do(i, helper)
	}
}

// hire hands the run to a helper if the budget has one free: to a new one
// while the set has no helper that is not in flight. It never waits.
func (o *Ordered) hire() bool {
	limit := int32(budget())
	var n int32 // helpers in flight before this one
	for {
		n = helpers.busy.Load()
		if n >= limit {
			return false
		}
		if helpers.busy.CompareAndSwap(n, n+1) {
			break
		}
	}
	t := ticket{o, o.gen}
	for s := helpers.started.Load(); s <= n; s = helpers.started.Load() {
		if helpers.started.CompareAndSwap(s, s+1) {
			go help(t)
			return true
		}
	}
	select {
	case helpers.work <- t:
		return true
	default:
		helpers.busy.Add(-1)
		return false
	}
}

// help is a helper's life: it attaches to the run of each ticket it is
// handed, unless that has ended, runs the tasks it can claim, lets go,
// gives its place in the budget back and parks.
func help(t ticket) {
	for {
		if o := t.o; t.attach() {
			for j, ok := o.claim(true); ok; j, ok = o.claim(true) {
				o.do(j, true)
			}
			o.detach()
		}
		helpers.busy.Add(-1)
		t = <-helpers.work
	}
}

// attach takes a reference to t's run if its state still serves it.
func (t ticket) attach() bool {
	for {
		r := t.o.refs.Load()
		if uint32(r>>32) != t.gen {
			return false
		}
		if t.o.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// detach drops a reference to the run. The last one out advances the
// generation, empties the ring of signals nobody took and releases it.
func (o *Ordered) detach() {
	for {
		r := o.refs.Load()
		next := r - 1
		if uint32(next) == 0 {
			next += 1 << 32
		}
		if o.refs.CompareAndSwap(r, next) {
			if uint32(next) != 0 {
				return
			}
			break
		}
	}
	for k := range o.ring {
		select {
		case <-o.ring[k].done:
		default:
		}
	}
	o.tasks.Release()
}

// Run runs task(i, helper) for every i in [0, n) on the calling goroutine
// and up to want helpers, and returns once every task is done, with the
// first failure in index order; a task's panic is raised here. A task that
// should stop with its caller's context returns the context's error. Its
// state, ring and signals included, is leased from a free list.
func Run(n, want int, task func(i int, helper bool) error) error {
	r := runs.Get()
	r.task = task
	r.Start(r, n, n, want)
	var err error
	var p *HelperPanic
	for i := 0; i < n; i++ {
		if t := r.wait(i); err == nil && p == nil {
			err, p = t.err, t.panicked
		}
	}
	r.Stop() // r may be on the free list from here
	if p != nil {
		panic(p)
	}
	return err
}

// run is a Run's state: its ordered run and the one function it calls.
type run struct {
	Ordered
	task func(i int, helper bool) error
}

// maxTurns bounds the ring a kept run state keeps: one that served more
// tasks is dropped.
const maxTurns = 256

// runs is the free list of Run's states, at most four per P; the last one
// out of a run, which puts it back, may be a helper.
var runs = FreeList[run]{PerP: 4, Keep: func(r *run) bool { return len(r.turns) <= maxTurns }}

func (r *run) Do(i int, helper bool) error { return r.task(i, helper) }

// Release severs the state from the finished run and puts it on the free
// list, if it has room.
func (r *run) Release() {
	r.task = nil
	for k := range r.ring {
		r.ring[k].err, r.ring[k].panicked = nil, nil
	}
	runs.Put(r)
}
