package engine

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeList: a list keeps at most PerP × GOMAXPROCS items, drops what
// its Keep refuses, hands kept items back before it makes new ones, and
// takes concurrent Gets and Puts (run it under -race) without handing one
// item to two holders at once.
func TestFreeList(t *testing.T) {
	type item struct {
		size  int
		owner int
	}
	bound := 2 * runtime.GOMAXPROCS(0)

	t.Run("bound", func(t *testing.T) {
		l := FreeList[item]{PerP: 2}
		items := make([]*item, bound+3)
		for i := range items {
			items[i] = l.Get()
		}
		for _, x := range items {
			l.Put(x)
		}
		kept := map[*item]bool{}
		for _, x := range items {
			kept[x] = true
		}
		reused := 0
		for i := 0; i < len(items); i++ {
			if kept[l.Get()] {
				reused++
			}
		}
		if reused != bound {
			t.Errorf("%d items came back from a list bounded at %d", reused, bound)
		}
	})

	t.Run("keep", func(t *testing.T) {
		l := FreeList[item]{PerP: 2, Keep: func(x *item) bool { return x.size <= 10 }}
		small, big := &item{size: 10}, &item{size: 11}
		l.Put(big)
		l.Put(small)
		if got := l.Get(); got != small {
			t.Errorf("Get returned %+v, want the kept item", got)
		}
		if got := l.Get(); got == big {
			t.Error("an item Keep refused came back")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		l := FreeList[item]{PerP: 1}
		const workers, rounds = 8, 2000
		var wg sync.WaitGroup
		for g := 1; g <= workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < rounds; k++ {
					x := l.Get()
					if x.owner != 0 {
						t.Errorf("worker %d got an item worker %d still holds", g, x.owner)
						return
					}
					x.owner = g
					runtime.Gosched()
					if x.owner != g {
						t.Errorf("worker %d's item was taken over by worker %d", g, x.owner)
						return
					}
					x.owner = 0
					l.Put(x)
				}
			}()
		}
		wg.Wait()
	})
}
