// Package par is the repository's one data-parallel loop. The
// simulations of a batch, the folds of an ensemble and the chunks of a
// batched prediction all run through For, so the argument that results
// are bit-identical for any worker count is made here once: each call
// of fn writes only its own item's slot, and every call has returned
// before For does.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker setting to a goroutine bound: a positive
// value as given, 0 as GOMAXPROCS, a negative value as 1.
func Workers(w int) int {
	switch {
	case w > 0:
		return w
	case w == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// For calls fn(i) once for every i in [0, n). At most
// min(Workers(workers), n) goroutines claim items, in ascending order;
// when that bound is 1, fn runs on the caller's goroutine, in index
// order, and For allocates nothing. For returns once every call has
// returned.
func For(n, workers int, fn func(i int)) {
	w := min(Workers(workers), n)
	if w <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
