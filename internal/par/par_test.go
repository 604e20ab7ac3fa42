package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{3, 3},
		{0, runtime.GOMAXPROCS(0)},
		{-5, 1},
	} {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestForRunsEveryIndexOnce checks each index is called exactly once,
// that no more than min(Workers(w), n) calls ever run at once, and that
// every call has returned when For does.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		for _, w := range []int{-1, 0, 1, 3, 64} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				var running, high, returned atomic.Int64
				For(n, w, func(i int) {
					now := running.Add(1)
					for {
						h := high.Load()
						if now <= h || high.CompareAndSwap(h, now) {
							break
						}
					}
					calls[i].Add(1)
					runtime.Gosched() // give other workers a chance to overlap
					running.Add(-1)
					returned.Add(1)
				})
				if got := returned.Load(); got != int64(n) {
					t.Fatalf("For returned after %d of %d calls", got, n)
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Errorf("index %d called %d times", i, c)
					}
				}
				if bound := int64(min(Workers(w), n)); high.Load() > bound {
					t.Errorf("%d calls ran at once, bound is %d", high.Load(), bound)
				}
			})
		}
	}
}

// TestForSequentialInline checks that at one worker the calls arrive in
// ascending order on the caller's goroutine, without allocating.
func TestForSequentialInline(t *testing.T) {
	for _, w := range []int{-1, 1} {
		var got []int
		For(5, w, func(i int) { got = append(got, i) })
		if fmt.Sprint(got) != "[0 1 2 3 4]" {
			t.Errorf("workers %d: order %v, want ascending", w, got)
		}
		sum := 0
		fn := func(i int) { sum += i }
		if allocs := testing.AllocsPerRun(100, func() { For(64, w, fn) }); allocs != 0 {
			t.Errorf("workers %d: For allocated %v times per call", w, allocs)
		}
	}
}
