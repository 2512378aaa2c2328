package engine

import (
	"runtime"
	"sync"
)

// FreeList is a bounded free list of *T: the one lease rule of every state
// a job reuses instead of allocating. Get hands out a kept item or a new
// one; Put keeps an item for the next Get while the list holds fewer than
// PerP × GOMAXPROCS of them and Keep, when set, accepts it, and drops it
// otherwise. The caller severs every reference into its job before Put.
//
// It is a mutex and a slice, not a sync.Pool: the collector empties a
// pool, a pool keeps what is put back on the P that put it (the last
// goroutine to let go of a state may not be the next to want one), and a
// race build's pool drops one Put in four at random, so a job would
// allocate its state again at the collector's or the race detector's whim.
// The price is that an idle process keeps up to the bound. The zero
// value of Keep keeps everything; a FreeList must not be copied.
type FreeList[T any] struct {
	PerP int           // items kept per P
	Keep func(*T) bool // false: x is oversized, drop it
	mu   sync.Mutex
	free []*T
}

// Get returns a kept item, or a new one when none is kept.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return new(T)
}

// Put keeps x for a later Get, if the list has room and Keep accepts it.
func (l *FreeList[T]) Put(x *T) {
	if l.Keep != nil && !l.Keep(x) {
		return
	}
	l.mu.Lock()
	if len(l.free) < l.PerP*runtime.GOMAXPROCS(0) {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// Grown returns buf resized to n and cleared, reallocated only when it is
// too short: a leased table grows to the widest job it served.
func Grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
