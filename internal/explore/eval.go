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

// flight is one in-flight batch evaluation: the batch's points fan out
// over a worker pool, and results reassemble in batch order regardless
// of which worker finishes when — the property that keeps parallel runs
// bit-identical to sequential ones.
type flight struct {
	batch   []int
	results []pointResult
	done    chan struct{}
}

// await blocks until every point has an outcome.
func (f *flight) await() []pointResult {
	<-f.done
	return f.results
}

// launchEval starts evaluating batch across a pool of workers and
// returns immediately; the caller awaits the flight when it needs the
// results. Each point is evaluated through its own single-element
// Evaluate call, so any core.Oracle — including the cycle-level
// simulator adapters, whose per-point cost is the reason this package
// exists — runs genuinely in parallel without implementing its own
// batching. attempts is the total tries per point (>= 1).
func launchEval(ctx context.Context, oracle core.Oracle, batch []int, workers, attempts int) *flight {
	fl := &flight{
		batch:   batch,
		results: make([]pointResult, len(batch)),
		done:    make(chan struct{}),
	}
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
				if i >= len(fl.batch) {
					return
				}
				fl.results[i] = evalPoint(ctx, oracle, fl.batch[i], attempts)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(fl.done)
	}()
	return fl
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
