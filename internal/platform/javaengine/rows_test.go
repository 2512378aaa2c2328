package javaengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// setRowWindow installs f as the test hook on every row window until the
// test ends.
func setRowWindow(t *testing.T, f func(window int, helper bool)) {
	atRowWindow.Store(&f)
	t.Cleanup(func() { atRowWindow.Store(nil) })
}

// indexRows are n one-field rows holding their own index.
func indexRows(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = data.NewRecord(data.Int(int64(i)))
	}
	return out
}

// filterAtom is source → Filter(keep) → sink over recs as one atom.
func filterAtom(t *testing.T, recs []data.Record, keep plan.FilterFunc) (*engine.TaskAtom, *physical.Operator) {
	t.Helper()
	b := plan.NewBuilder("rows")
	b.Collect(b.Filter(b.Source("s", plan.Collection(recs)), keep))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return inAtom(pp), pp.Ops[1]
}

// TestRowWindowFailuresInWindowOrder: a UDF chain forced over windows on
// helpers fails as its first failing window in window order does. With an
// error in window 5 and a panic in window 2, it is the panic that
// surfaces, raised on the forcing goroutine as an engine.HelperPanic that
// carries the helper's stack; with the panic in window 6 instead, window
// 5's error, which waits until window 6 has panicked — a case that needs
// two helpers, so three cores. The UDF panics only on a helper, and
// engine.HelperTask keeps the panicking window for one, so a single core,
// which has no helper, skips the test.
func TestRowWindowFailuresInWindowOrder(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skipf("%d CPU: no helper to keep a window for", runtime.NumCPU())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	var onHelper [8]atomic.Bool
	setRowWindow(t, func(w int, helper bool) { onHelper[w].Store(helper) })
	var panicAt atomic.Int64
	keepForHelper := func(w int) bool { return int64(w) == panicAt.Load() }
	engine.HelperTask.Store(&keepForHelper)
	t.Cleanup(func() { engine.HelperTask.Store(nil) })
	keep := func(r data.Record) (bool, error) {
		i := r.Field(0).Int()
		if i%window != 0 {
			return true, nil
		}
		switch w := int(i / window); {
		case int64(w) == panicAt.Load() && onHelper[w].Load():
			panic(fmt.Sprintf("window %d refused", w))
		case w == 5:
			if at := int(panicAt.Load()); at > w {
				// Fail only once the later window has met its panic.
				for deadline := time.Now().Add(10 * time.Second); !onHelper[at].Load() && time.Now().Before(deadline); {
					time.Sleep(10 * time.Microsecond)
				}
			}
			return false, errors.New("window 5 failed")
		}
		return true, nil
	}
	recs := indexRows(8 * window)
	atom, filter := filterAtom(t, recs, keep)
	for _, c := range []struct {
		panicAt int
		raised  bool // the panic is what surfaces
	}{{2, true}, {6, false}} {
		if c.panicAt == 6 && runtime.NumCPU() < 3 {
			// Window 5 waits for window 6 to meet a helper, so the case
			// needs two: with one, window 5 may hold it.
			t.Logf("panic at 6 skipped: %d CPUs give one helper, the case needs two", runtime.NumCPU())
			continue
		}
		for w := range onHelper {
			onHelper[w].Store(false)
		}
		panicAt.Store(int64(c.panicAt))
		v, err := func() (v any, err error) {
			defer func() { v = recover() }()
			_, err = (&datasetOps{atom: atom}).ExecOp(context.Background(), filter, []any{recs})
			return nil, err
		}()
		if !onHelper[c.panicAt].Load() {
			t.Fatalf("panic at %d: no helper met its window", c.panicAt)
		}
		switch p, _ := v.(*engine.HelperPanic); {
		case c.raised && p != nil:
			if fmt.Sprint(p.V) != "window 2 refused" || !strings.Contains(string(p.Stack), "core/engine.help(") {
				t.Fatalf("panic at %d: raised %v, from a stack without the helper's frame:\n%s", c.panicAt, p.V, p.Stack)
			}
		case !c.raised && v == nil && err != nil && err.Error() == "window 5 failed":
		default:
			t.Fatalf("panic at %d: the forcing raised %v and returned %v", c.panicAt, v, err)
		}
	}
}

// TestRowWindowsStopOnCancel: once a window cancels the job, no later
// window's UDF is called, and the atom returns the context's error as it
// is, which engine.RunAtom does not make Fatal.
func TestRowWindowsStopOnCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan struct{})
		// Every window but the first waits, once claimed, for the first to
		// cancel: whichever goroutine claimed it, it then finds the context
		// done.
		setRowWindow(t, func(w int, _ bool) {
			if w > 0 {
				<-cancelled
			}
		})
		var later atomic.Int64
		atom, _ := filterAtom(t, indexRows(4*window), func(r data.Record) (bool, error) {
			switch i := r.Field(0).Int(); {
			case i == 0:
				cancel()
				close(cancelled)
			case i >= window:
				later.Add(1)
			}
			return true, nil
		})
		_, _, err := New().ExecuteAtom(ctx, atom, engine.AtomInputs{})
		cancel()
		if err != context.Canceled {
			t.Errorf("GOMAXPROCS %d: err = %v, want context.Canceled itself", procs, err)
		}
		if engine.IsFatal(err) {
			t.Errorf("GOMAXPROCS %d: a cancelled forcing is Fatal: %v", procs, err)
		}
		if n := later.Load(); n != 0 {
			t.Errorf("GOMAXPROCS %d: the UDF ran on %d records of later windows after the cancel", procs, n)
		}
	}
}
