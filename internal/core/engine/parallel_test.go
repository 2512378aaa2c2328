package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunFailsFirstInIndexOrder: whichever goroutine meets a failure and
// whenever, Run reports the first in index order — an error, or a panic
// raised on the caller with the helper's frames when a helper met it — and
// returns only once no task is running.
func TestRunFailsFirstInIndexOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name        string
		errs        []int
		panicAt     int
		want, panic string
	}{
		{"errors at 3 and 9", []int{3, 9}, -1, "task 3 failed", ""},
		{"error at 3, panic at 5", []int{3}, 5, "task 3 failed", ""},
		{"panic at 2, error at 3", []int{3}, 2, "", "task 2 refused"},
	} {
		for rep := 0; rep < 20; rep++ {
			var running atomic.Int32
			var err error
			raised := func() (p any) {
				defer func() { p = recover() }()
				err = Run(16, 15, func(i int, helper bool) error {
					running.Add(1)
					defer running.Add(-1)
					if i == c.panicAt {
						panic(fmt.Sprintf("task %d refused", i))
					}
					for k, e := range c.errs {
						if e == i {
							// The later failure is met first.
							time.Sleep(time.Duration(len(c.errs)-k) * time.Millisecond)
							return fmt.Errorf("task %d failed", i)
						}
					}
					return nil
				})
				return nil
			}()
			if n := running.Load(); n != 0 {
				t.Fatalf("%s: %d tasks still running after Run returned", c.name, n)
			}
			if c.panic == "" {
				if raised != nil || err == nil || err.Error() != c.want {
					t.Fatalf("%s: Run returned %v and raised %v, want %q", c.name, err, raised, c.want)
				}
				continue
			}
			p, ok := raised.(*HelperPanic)
			if !ok || p.V != c.panic {
				t.Fatalf("%s: Run raised %v (returned %v), want a HelperPanic of %q", c.name, raised, err, c.panic)
			}
			if !strings.Contains(p.String(), "engine.(*Ordered).do(") {
				t.Fatalf("%s: the panic lost the stack it was raised on:\n%s", c.name, p)
			}
		}
	}
}

// TestRunSkipsTasksAfterAFailure: on one goroutine, no task after the
// first that failed is run.
func TestRunSkipsTasksAfterAFailure(t *testing.T) {
	var ran atomic.Int32
	err := Run(16, 0, func(i int, _ bool) error {
		ran.Add(1)
		if i == 3 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || ran.Load() != 4 {
		t.Errorf("Run returned %v after running %d tasks, want task 3's error after 4", err, ran.Load())
	}
}

// TestRunNeverWaitsForAHelper: while another run holds the whole budget,
// a run that asks for every helper gets none and runs all its tasks on its
// own goroutine, at once, rather than wait for one to come free.
func TestRunNeverWaitsForAHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	hold, held := make(chan struct{}), make(chan error, 1)
	var blocked atomic.Int32
	deadline := time.Now().Add(5 * time.Second)
	for n, _ := Helpers(); n != 0; n, _ = Helpers() {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still in flight from earlier runs", n)
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		held <- Run(64, 63, func(_ int, helper bool) error {
			if helper {
				blocked.Add(1)
				<-hold
			}
			// The caller leaves the helpers tasks to take.
			for blocked.Load() < 3 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}()
	defer func() {
		close(hold)
		if err := <-held; err != nil {
			t.Error(err)
		}
	}()
	for ; blocked.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			inFlight, started := Helpers()
			t.Fatalf("%d helpers took a task of the holding run, want 3 (%d in flight, %d started)", blocked.Load(), inFlight, started)
		}
	}
	if n, _ := Helpers(); n != 3 {
		t.Fatalf("%d helpers in flight, want the whole budget of 3", n)
	}
	var onHelper atomic.Int32
	if err := Run(8, 7, func(_ int, helper bool) error {
		if helper {
			onHelper.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := onHelper.Load(); n != 0 {
		t.Errorf("%d tasks ran on a helper beyond the budget", n)
	}
}

// released counts a run's releases.
type released struct{ n atomic.Int32 }

func (*released) Do(int, bool) error { return nil }
func (r *released) Release()         { r.n.Add(1) }

// TestTicketOfAnEndedRunAttachesToNothing: a helper that takes up its
// ticket only after the run ended, and its state went to a new run,
// attaches to nothing; a ticket of the new run attaches. The state is
// released once per run.
func TestTicketOfAnEndedRunAttachesToNothing(t *testing.T) {
	var o Ordered
	var r released
	o.Start(&r, 1, 1, 0)
	stale := ticket{&o, o.gen}
	if err := o.Await(0); err != nil {
		t.Fatal(err)
	}
	o.Stop()
	o.Start(&r, 1, 1, 0)
	if stale.attach() {
		t.Fatal("a ticket of the ended run attached to the next run")
	}
	fresh := ticket{&o, o.gen}
	if !fresh.attach() {
		t.Fatal("a ticket of the running run did not attach")
	}
	o.detach()
	if err := o.Await(0); err != nil {
		t.Fatal(err)
	}
	o.Stop()
	if n := r.n.Load(); n != 2 {
		t.Errorf("released %d times in two runs", n)
	}
}
