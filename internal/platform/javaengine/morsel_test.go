package javaengine

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/core/batch"
	"rheem/internal/core/engine"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// morselChains are every consumer of a forcing that crosses windows: folds
// whose float sums and AggFirst carry over window edges, groupings under a
// float key (the NaN a group per row) and under an int key that meets a
// null in window 2 and moves its groups to the KeyTable, the sink — which
// gathers a batch, catching up on whole windows, or cuts records — and a
// row operator; the column maps' chains and their failures besides.
func morselChains() map[string]func(*plan.Builder, *plan.Operator) *plan.Operator {
	filter := func(b *plan.Builder, in *plan.Operator) *plan.Operator {
		return b.FilterWhere(in, 1, plan.LessEq, data.Float(50))
	}
	chains := map[string]func(*plan.Builder, *plan.Operator) *plan.Operator{
		"filter/fold": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(b.ProjectCols(filter(b, s), 3, 1, 0, 2), plan.AggSum, plan.AggFirst, plan.AggSum, plan.AggMax)
		},
		"fold-first": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(b.ProjectCols(s, 1, 3), plan.AggFirst, plan.AggSum)
		},
		"group-float": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(s, []int{1}, everyFold(1, 3)...)
		},
		"filter/group-int": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(filter(b, s), []int{2}, everyFold(2, 3)...)
		},
		"filter/group-int/sorted": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(filter(b, s), []int{2}, everyFold(2, 1)...)
		},
		"late-drop/sink": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.ProjectCols(b.FilterWhere(s, 0, plan.Less, data.Int(2*window+10)), 2, 1)
		},
		"filter/sink":  filter,
		"project/sink": func(b *plan.Builder, s *plan.Operator) *plan.Operator { return b.ProjectCols(filter(b, s), 3, 0) },
	}
	for name, build := range mapChains(asColumns) {
		chains[name] = build
	}
	for name, build := range failingChains() {
		chains[name] = build
	}
	return chains
}

// firstLine is an error's text up to the stack trace engine.RunAtom
// appends to a recovered panic, which names the goroutine that raised it.
func firstLine(err error) string {
	if err == nil {
		return ""
	}
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}

// setHead installs f as the test hook on every window's head until the
// test ends.
func setHead(t *testing.T, f func(window int, helper bool)) {
	atHead.Store(&f)
	t.Cleanup(func() { atHead.Store(nil) })
}

// TestMorselForcingMatchesSerial is the workers axis of the differential
// suites: every consumer over rows, a batch and columns at rest — with
// ragged windows, nulls and column maps — gives the same bytes, or fails
// with the same text, at GOMAXPROCS 4 (morsel-parallel) as at 1 (serial).
// It fails as well if no helper produced a window at 4: that would be the
// serial forcing compared with itself.
func TestMorselForcingMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var helped atomic.Int64
	setHead(t, func(_ int, helper bool) {
		if helper {
			helped.Add(1)
		}
	})
	run := func(procs int, in any, name string, build func(*plan.Builder, *plan.Operator) *plan.Operator) ([]byte, error) {
		runtime.GOMAXPROCS(procs)
		if in, ok := in.(atRest); ok {
			return runWhole(atRestSource(in.cols), true, build)
		}
		return runChain(t, in, true, name, build)
	}
	chains := morselChains()
	for _, n := range []int{2*window + 1, 3*window + 7} {
		for _, ragged := range []bool{false, true} {
			recs := boundaryRecs(n, ragged)
			ins := map[string]any{"rows": recs, "batch": batch.FromRecords(recs)}
			if !ragged {
				ins["at-rest"] = atRest{batch.FromRecords(recs)}
			}
			for shape, in := range ins {
				for name, build := range chains {
					want, wantErr := run(1, in, name, build)
					for rep := 0; rep < 2; rep++ {
						got, gotErr := run(4, in, name, build)
						id := fmt.Sprintf("n=%d ragged=%v %s over %s, run %d", n, ragged, name, shape, rep)
						switch {
						case firstLine(wantErr) != firstLine(gotErr):
							t.Errorf("%s: serial forcing failed with %v, morsel-parallel with %v", id, wantErr, gotErr)
						case !bytes.Equal(want, got):
							t.Errorf("%s: morsel-parallel forcing diverges from the serial one", id)
						}
					}
				}
			}
		}
	}
	if helped.Load() == 0 {
		t.Error("no helper produced a window at GOMAXPROCS 4")
	}
}

// TestMorselForcingsDoNotDeadlock: 4 × GOMAXPROCS goroutines force
// multi-window chains at once at GOMAXPROCS 2, so forcings outnumber the
// one helper and each other's helpers are busy; none may wait for one. All
// finish within the deadline with their serial answers, the process has at
// most GOMAXPROCS−1 helpers, the goroutine count returns to what it was
// plus the helpers started, and the free list keeps at most GOMAXPROCS
// states, none of them holding a window's scratch.
func TestMorselForcingsDoNotDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	recs := leaseRecs(5*window + 100)
	sources := []func(*plan.Builder) *plan.Operator{rowsSource(recs), atRestSource(batch.FromRecords(recs))}
	chains := leaseChains()
	want := map[string][]byte{}
	for name, build := range chains {
		for i, src := range sources {
			out, err := runWhole(src, false, build)
			if err != nil {
				t.Fatalf("%s: the UDF twin failed: %v", name, err)
			}
			want[fmt.Sprint(name, i)] = out
		}
	}
	goroutines, started := runtime.NumGoroutine(), helpers.started.Load()
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for name, build := range chains {
					for i, src := range sources {
						if got, err := runWhole(src, true, build); err != nil || !bytes.Equal(got, want[fmt.Sprint(name, i)]) {
							t.Errorf("goroutine %d: %s over source %d diverges from its UDF twin (%v)", g, name, i, err)
							return
						}
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("concurrent forcings did not finish:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if now := helpers.started.Load(); now > max(started, 1) {
		t.Errorf("%d helpers at GOMAXPROCS 2, %d before", now, started)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		extra := runtime.NumGoroutine() - goroutines - int(helpers.started.Load()-started)
		if extra <= 0 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines more than before and the helpers:\n%s", extra, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	idle.Lock()
	defer idle.Unlock()
	if len(idle.states) > runtime.GOMAXPROCS(0) {
		t.Errorf("%d idle forcing states at GOMAXPROCS %d", len(idle.states), runtime.GOMAXPROCS(0))
	}
	for _, m := range idle.states {
		for k, sl := range m.slots {
			if sl.scratch != nil {
				t.Errorf("an idle forcing state holds the scratch of its slot %d", k)
			}
		}
	}
}

// failAt is a chain whose column map returns an error in each window of
// errs, over rows whose first field is the row's index.
func failAt(errs ...int) func(*plan.Builder, *plan.Operator) *plan.Operator {
	return func(b *plan.Builder, s *plan.Operator) *plan.Operator {
		m := b.MapColumns(b.FilterWhere(s, 1, plan.LessEq, data.Float(50)), plan.ColumnMap{
			In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}},
			Out: []batch.ColKind{batch.ColInt64},
			Fn: func(_ int, in, out []batch.Column) error {
				for _, e := range errs {
					if in[0].Int64s[0]/window == int64(e) {
						return fmt.Errorf("window %d refused", e)
					}
				}
				copy(out[0].Int64s, in[0].Int64s)
				return nil
			},
		})
		return b.AggregateCols(m, plan.AggSum)
	}
}

// TestMorselFailuresInWindowOrder: what fails a morsel-parallel forcing is
// what fails the serial one first, in window order, whichever goroutine
// met it. A head that panics on a helper fails the atom with the serial
// engine.Fatal's text, raised at its window's turn — before a column map's
// error in a later window, after one in an earlier window — and of two
// errors the first window's is the one reported, and the atom's error
// carries the helper's stack, where the head panicked. The test hook
// panics only on a helper; a run in which the forcing goroutine produced that window
// itself must end as the serial forcing does without the panic.
func TestMorselFailuresInWindowOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	src := rowsSource(boundaryRecs(8*window, false))
	var anywhere atomic.Bool // panic on the forcing goroutine too: the serial reference
	var panicAt atomic.Int64
	setHead(t, func(w int, helper bool) {
		if !helper {
			// Slow the forcing goroutine down, so helpers claim windows.
			time.Sleep(200 * time.Microsecond)
		}
		if int64(w) == panicAt.Load() && (helper || anywhere.Load()) {
			panic(fmt.Sprintf("head of window %d refused", w))
		}
	})
	serially := func(at int, errs []int) error {
		panicAt.Store(int64(at))
		anywhere.Store(true)
		runtime.GOMAXPROCS(1)
		_, err := runWhole(src, true, failAt(errs...))
		return err
	}
	for _, c := range []struct {
		name    string
		panicAt int
		errs    []int
		want    string
	}{
		{"errors at 2 and 5", -1, []int{2, 5}, "window 2 refused"},
		{"helper panic at 5, error at 2", 5, []int{2}, "window 2 refused"},
		{"helper panic at 2, error at 5", 2, []int{5}, "head of window 2 refused"},
		{"helper panic at 6", 6, nil, "head of window 6 refused"},
	} {
		serial, clean := serially(c.panicAt, c.errs), serially(-1, c.errs)
		if serial == nil || !strings.Contains(serial.Error(), c.want) {
			t.Fatalf("%s: the serial forcing returned %v, want %q", c.name, serial, c.want)
		}
		if strings.HasPrefix(c.want, "head") && !engine.IsFatal(serial) {
			t.Fatalf("%s: the serial forcing's panic is not Fatal: %v", c.name, serial)
		}
		panicAt.Store(int64(c.panicAt))
		anywhere.Store(false)
		runtime.GOMAXPROCS(4)
		raised := 0
		for try := 0; try < 200 && raised < 5; try++ {
			_, err := runWhole(src, true, failAt(c.errs...))
			switch got := firstLine(err); {
			case got == firstLine(serial) && engine.IsFatal(err) == engine.IsFatal(serial):
				if c.panicAt >= 0 && strings.HasPrefix(c.want, "head") && !strings.Contains(err.Error(), "javaengine.help(") {
					t.Fatalf("%s: the helper's panic lost the helper's stack:\n%v", c.name, err)
				}
				raised++
			case got == firstLine(clean) && engine.IsFatal(err) == engine.IsFatal(clean):
				// The forcing goroutine produced the panicking window itself.
			default:
				t.Fatalf("%s: morsel-parallel forcing returned %v, serial %v", c.name, err, serial)
			}
		}
		if raised == 0 {
			t.Errorf("%s: no helper ever met the panic in 200 runs", c.name)
		}
	}
}
