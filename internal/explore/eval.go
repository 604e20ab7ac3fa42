package explore

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/par"
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

// evalBatch evaluates batch on par.For under the Pipeline.Workers
// setting and returns the outcomes in batch order. Each point is its
// own single-element Evaluate call, so any core.Oracle — the
// cycle-level simulator adapters included — runs in parallel without
// batching of its own. attempts is the total tries per point (>= 1).
// No oracle call outlives it: par.For returns after the last one.
func evalBatch(ctx context.Context, oracle core.Oracle, batch []int, workers, attempts int) []pointResult {
	results := make([]pointResult, len(batch))
	par.For(len(batch), workers, func(i int) {
		results[i] = evalPoint(ctx, oracle, batch[i], attempts)
	})
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
