package explore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// DefaultRetries is how many extra attempts a failing design point gets
// before quarantine when Pipeline.Retries is zero.
const DefaultRetries = 1

// pointResult is the outcome of evaluating one design point.
type pointResult struct {
	target   []float64
	attempts int
	err      error // last failure; nil on success
}

// evalBatch evaluates batch across a pool of workers and returns the
// outcomes in batch order, whichever worker finishes when — the
// property that keeps parallel runs bit-identical to sequential ones.
// Each point is evaluated through its own single-element Evaluate call,
// so any core.Oracle — including the cycle-level simulator adapters,
// whose per-point cost is the reason this package exists — runs
// genuinely in parallel without implementing its own batching. attempts
// is the total tries per point (>= 1). It returns once every worker has
// exited, so no oracle call outlives it.
func evalBatch(ctx context.Context, oracle core.Oracle, batch []int, workers, attempts int) []pointResult {
	results := make([]pointResult, len(batch))
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				results[i] = evalPoint(ctx, oracle, batch[i], attempts)
			}
		}()
	}
	wg.Wait()
	return results
}

// evalPoint evaluates one design point, retrying failures up to
// attempts total tries. Cancellation surfaces as the context's error
// and stops retrying immediately.
func evalPoint(ctx context.Context, oracle core.Oracle, idx, attempts int) pointResult {
	var res pointResult
	for try := 1; try <= attempts; try++ {
		if err := ctx.Err(); err != nil {
			res.err = err
			return res
		}
		res.attempts = try
		targets, err := oracle.Evaluate([]int{idx})
		if err == nil {
			switch {
			case len(targets) != 1:
				err = fmt.Errorf("explore: oracle returned %d results for design point %d, want 1", len(targets), idx)
			default:
				err = core.CheckTarget(idx, targets[0], 0)
			}
			if err == nil {
				res.target = targets[0]
				res.err = nil
				return res
			}
		}
		res.err = fmt.Errorf("explore: design point %d (attempt %d/%d): %w", idx, try, attempts, err)
	}
	return res
}

// resolveFanout maps a Pipeline.Workers setting to a concrete pool
// size: positive as-is, 0 selects GOMAXPROCS, negative sequential.
func resolveFanout(w int) int {
	if w > 0 {
		return w
	}
	if w == 0 {
		if p := runtime.GOMAXPROCS(0); p > 1 {
			return p
		}
	}
	return 1
}

// resolveAttempts maps a Pipeline.Retries setting to total tries per
// point: 0 selects DefaultRetries extra attempts, negative none.
func resolveAttempts(retries int) int {
	switch {
	case retries > 0:
		return 1 + retries
	case retries == 0:
		return 1 + DefaultRetries
	default:
		return 1
	}
}
