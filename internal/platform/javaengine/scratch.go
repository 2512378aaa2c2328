package javaengine

import (
	"sync/atomic"

	"rheem/internal/core/batch"
	"rheem/internal/core/engine"
)

// scratch is the memory of one forcing. What leaves a forcing — result rows,
// gathered batches, group and sorted records — is freshly allocated; what does not is
// here, leased where it starts and returned where it ends, error or not
// (a panic drops the lease).
type scratch struct {
	sel   [window]int32 // the rows of a window its filters keep
	win   win
	group grouper
	sort  sorter
}

// maxCols bounds the columns a kept scratch keeps, as window bounds their
// rows and its groups: one that served a wider job is dropped.
const maxCols = 64

// maxSorted bounds the survivors whose keys and positions a kept scratch
// keeps room for: one that sorted more is dropped.
const maxSorted = 4 * window

// scratches is the free list of released scratches: at most four per P,
// which covers two morsel-parallel forcings at once (each leases two
// windows per worker); a scratch released beyond that is dropped, and one
// that grew past maxCols or a window of groups keeps only what fits. An
// idle process keeps up to 4 × GOMAXPROCS scratches, each window-sized,
// with every reference into the jobs that used them severed.
var scratches = engine.FreeList[scratch]{PerP: 4}

// scribble, set by tests, overwrites what release keeps before it is
// kept. It is atomic because a helper may release a forcing's slots after
// the forcing returned (morsel.go).
var scribble atomic.Pointer[func(*scratch)]

// release returns s to the free list with every reference into the finished
// job severed. A window's columns are views — over a columnar source, of
// storage every job shares, which Column.Fill would write into — and go; the
// storage behind them keeps its numbers (every reader writes first, a
// computed column through Column.Reset) and loses its strings, values and
// bitmaps. An emptied map still means "no key of this kind yet": the grouper
// asks len.
func (s *scratch) release() {
	w, g := &s.win, &s.group
	if len(w.cols)+len(w.maps.calc) > maxCols {
		*w = win{}
	}
	if g.any != nil || len(g.keys) > window { // keys is the table's own then
		*g = grouper{}
	}
	if len(s.sort.pos) > maxSorted {
		s.sort = sorter{}
	}
	clear(w.cols)
	clear(w.maps.args)
	clear(w.maps.vals)
	for _, cols := range [][]batch.Column{w.store, w.maps.calc, w.maps.dense} {
		for i := range cols {
			c := &cols[i]
			clear(c.Strings[:cap(c.Strings)])
			clear(c.Any[:cap(c.Any)])
			c.Valid = nil
		}
	}
	s.sort.keys.Reset()
	g.sorted.Reset()
	s.sort.pos, s.sort.in = s.sort.pos[:0], pipeline{}
	g.spec = nil
	clear(g.ints)
	clear(g.strs)
	clear(g.keys)
	g.keys = g.keys[:0]
	accs := g.accs[:cap(g.accs)]
	for j := range accs {
		clear(accs[j])
		accs[j] = accs[j][:0]
	}
	if f := scribble.Load(); f != nil {
		(*f)(s)
	}
	scratches.Put(s)
}
