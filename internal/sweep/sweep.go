// Package sweep evaluates entire design spaces through trained
// ensembles — the paper's payoff move. Simulation affords a few
// hundred points; the predictive models make the other 99 % cheap, so
// the natural query shifts from "score these points" to "rank the
// whole space": best-k configurations per metric, and the Pareto
// frontier over several predicted metrics at once (performance vs.
// energy across model bundles, or performance vs. prediction variance
// as a confidence axis).
//
// The engine is streaming: the space is enumerated in fixed-size
// chunks of flat indices (never materializing the cross product), a
// worker pool scores each chunk by its index range through
// core.RangeEvaluator — layer 0 from per-axis product tables and
// shared prefix sums, so no point is encoded — and per-chunk partial
// reductions — a bounded top-k heap per metric plus a local Pareto
// front — merge in chunk order. Where the range path does not apply,
// chunks are encoded (encoding.EncodeRange) and scored through
// core.MetricSet, as Reference always does. Chunk boundaries depend
// only on ChunkSize and every reduction is a total order (ties break on
// the lower flat index; exactly equal metric vectors collapse onto the
// lowest index), so the output is bit-identical for any worker count,
// and parity-tested against the naive materialize-everything
// Reference.
package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/par"
	"repro/internal/pareto"
	"repro/internal/space"
)

// DefaultChunkSize is the enumeration granularity when Config leaves
// it zero: big enough to keep the batched kernels in their blocked
// regime, small enough that per-worker buffers stay cache-friendly.
const DefaultChunkSize = 4096

// DefaultTopK is the per-metric leaderboard size when Config leaves it
// zero.
const DefaultTopK = 10

// DefaultMaxFrontier bounds the Pareto frontier when Config leaves it
// zero. Real frontiers are tiny next to their spaces; one that grows
// past this is almost always a degenerate metric set (the same axis
// maximized and minimized, say), which would otherwise reduce at
// O(frontier) per point and hoard O(space) memory.
const DefaultMaxFrontier = 1 << 16

// Config parameterizes one sweep.
type Config struct {
	// TopK is the per-metric leaderboard size (0 = DefaultTopK,
	// negative = no leaderboards, frontier only).
	TopK int
	// ChunkSize is the number of points one work unit enumerates,
	// encodes and scores (0 = DefaultChunkSize; anything past the
	// space's size means one chunk). Results are bit-identical for any
	// setting; throughput is flat across a wide range.
	ChunkSize int
	// Workers bounds the sweep's worker pool (0 = GOMAXPROCS; 1 or
	// negative = fully sequential). Output bits do not depend on it.
	Workers int
	// MaxFrontier fails the sweep if the Pareto frontier outgrows it
	// (0 = DefaultMaxFrontier, negative = unbounded). The check runs in
	// the ordered reducer, so it trips at the same point count for any
	// worker setting.
	MaxFrontier int
	// OnProgress, when non-nil, is called from the reducer — in chunk
	// order, on the Run goroutine — as chunks complete.
	OnProgress func(done, total int)
}

// MetricInfo names one result column and its ranking direction.
type MetricInfo struct {
	Name     string `json:"name"`
	Minimize bool   `json:"minimize,omitempty"`
}

// Result is a reduced full-space sweep.
type Result struct {
	// Space is the design space's name; Points is how many design
	// points were scored (the whole space).
	Space  string `json:"space"`
	Points int    `json:"points"`
	// Metrics names the value columns of every Point, in order.
	Metrics []MetricInfo `json:"metrics"`
	// TopK holds one best-first leaderboard per metric (empty when the
	// sweep ran frontier-only).
	TopK [][]Point `json:"topk,omitempty"`
	// Frontier is the Pareto-optimal set over all metrics, in
	// ascending index order.
	Frontier []Point `json:"frontier"`
	// Elapsed and PointsPerSec report throughput; they are the only
	// fields that vary between bit-identical runs.
	Elapsed      time.Duration `json:"elapsed"`
	PointsPerSec float64       `json:"pointsPerSec"`
}

// chunkPart is one chunk's reduction, travelling worker → reducer. A
// non-nil err means the chunk hit an unrankable point (NaN/±Inf metric
// value); the reducer surfaces errors strictly in chunk-id order, so
// the error a sweep reports is a function of the space, not of worker
// scheduling.
type chunkPart struct {
	id    int
	rows  int
	tops  []*topK
	front *pareto.Frontier
	err   error
}

// Run sweeps every point of sp through the metric set and reduces the
// stream into per-metric top-k leaderboards and the Pareto frontier.
// The encoder is derived from sp, so the metric set's ensembles must
// have been trained on sp's encoding (bundle loading guarantees this
// for bundle-backed metrics). Cancelling ctx abandons the sweep and
// returns the context's error.
func Run(ctx context.Context, sp *space.Space, set *core.MetricSet, cfg Config) (*Result, error) {
	start := time.Now() //repolint:allow determinism -- throughput telemetry; Elapsed/PointsPerSec are documented as the only wall-varying Result fields
	if sp == nil || set == nil {
		return nil, fmt.Errorf("sweep: need both a space and a metric set")
	}
	enc := encoding.NewEncoder(sp)
	if enc.Width() != set.Inputs() {
		return nil, fmt.Errorf("sweep: space %q encodes to %d inputs, metric models expect %d",
			sp.Name, enc.Width(), set.Inputs())
	}
	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = DefaultChunkSize
	}
	if chunk < 1 {
		return nil, fmt.Errorf("sweep: Config.ChunkSize %d is not positive", cfg.ChunkSize)
	}
	size := sp.Size()
	// Workers size their buffers by the chunk, so a chunk larger than
	// the space would allocate rows that can never be filled. Either
	// way the space is one chunk, so clamping cannot change the result.
	chunk = min(chunk, size)
	topk := cfg.TopK
	if topk == 0 {
		topk = DefaultTopK
	}
	switch {
	case topk < 0:
		topk = 0 // frontier only
	case topk > size:
		topk = size
	}
	maxFrontier := cfg.MaxFrontier
	if maxFrontier == 0 {
		maxFrontier = DefaultMaxFrontier
	}

	// Chunk c covers [c·chunk, (c+1)·chunk) ∩ [0, size).
	nchunks := (size + chunk - 1) / chunk
	// Not par.For: progress, the MaxFrontier trip and the first error
	// depend on workers streaming reductions to the ordered reducer.
	workers := min(par.Workers(cfg.Workers), nchunks)

	metrics := set.Metrics()
	minimize := set.Minimize()
	// Chunks score by flat index where the range path applies (layer 0
	// from per-axis product tables, no encoding); elsewhere they encode
	// rows, as Reference does.
	ev := set.NewRangeEvaluator(enc)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan chunkPart, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			width := enc.Width()
			var xs []float64
			if ev == nil {
				xs = make([]float64, chunk*width)
			}
			cols := make([][]float64, len(metrics))
			view := make([][]float64, len(metrics))
			for m := range cols {
				cols[m] = make([]float64, chunk)
			}
			vbuf := make([]float64, len(metrics))
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks || ctx.Err() != nil {
					return
				}
				lo := c * chunk
				rows := min(size, lo+chunk) - lo
				for m := range cols {
					view[m] = cols[m][:rows]
				}
				if ev != nil {
					ev.Eval(lo, rows, view)
				} else {
					enc.EncodeRange(lo, rows, xs[:rows*width])
					set.Eval(xs[:rows*width], rows, view)
				}
				p := chunkPart{id: c, rows: rows, front: pareto.NewFrontier(minimize)}
				for m := range metrics {
					p.tops = append(p.tops, newTopK(m, minimize[m], topk))
				}
				for r := 0; r < rows; r++ {
					for m := range vbuf {
						vbuf[m] = cols[m][r]
					}
					// The frontier's offer validates finiteness before
					// ranking; an unrankable point abandons the chunk
					// and travels to the reducer as its error.
					if err := p.front.Offer(lo+r, vbuf); err != nil {
						p.err = err
						break
					}
					for _, t := range p.tops {
						t.offer(lo+r, vbuf)
					}
				}
				select {
				case results <- p:
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	// Ordered reduction: chunk pieces may arrive in any order, but
	// merge strictly by chunk id, so progress is monotone and the merge
	// sequence is one fixed function of the space — not of scheduling.
	front := pareto.NewFrontier(minimize)
	var tops []*topK
	for m := range metrics {
		tops = append(tops, newTopK(m, minimize[m], topk))
	}
	pending := make(map[int]chunkPart, workers)
	reduced, scored := 0, 0
	for reduced < nchunks {
		var p chunkPart
		select {
		case p = <-results:
		case <-ctx.Done():
			cancel()
			wg.Wait()
			return nil, ctx.Err()
		}
		pending[p.id] = p
		for {
			q, ok := pending[reduced]
			if !ok {
				break
			}
			delete(pending, reduced)
			if q.err != nil {
				cancel()
				wg.Wait()
				return nil, fmt.Errorf("sweep: %w", q.err)
			}
			for m, t := range tops {
				t.merge(q.tops[m])
			}
			if err := front.Merge(q.front); err != nil {
				cancel()
				wg.Wait()
				return nil, fmt.Errorf("sweep: %w", err)
			}
			if maxFrontier > 0 && front.Len() > maxFrontier {
				cancel()
				wg.Wait()
				return nil, fmt.Errorf("sweep: Pareto frontier exceeds %d points after %d of %d swept — the metric set is likely degenerate (one axis both maximized and minimized); raise Config.MaxFrontier (negative = unbounded) if the frontier is genuinely this large",
					maxFrontier, scored+q.rows, size)
			}
			scored += q.rows
			reduced++
			if cfg.OnProgress != nil {
				cfg.OnProgress(scored, size)
			}
		}
	}
	wg.Wait()

	res := &Result{
		Space:    sp.Name,
		Points:   size,
		Frontier: front.Sorted(),
	}
	for _, m := range metrics {
		res.Metrics = append(res.Metrics, MetricInfo{Name: m.Name, Minimize: m.Minimize})
	}
	if topk > 0 {
		for _, t := range tops {
			res.TopK = append(res.TopK, t.ranked())
		}
	}
	res.Elapsed = time.Since(start) //repolint:allow determinism -- throughput telemetry; parity tests compare everything but these fields
	res.PointsPerSec = float64(res.Points) / res.Elapsed.Seconds()
	return res, nil
}

// Reference computes the same reduction by materializing and scoring
// every design point at once, ranking with full sorts and an O(n²)
// dominance scan — a direct transcription of the definitions, with
// none of the engine's streaming machinery. It exists as the parity
// oracle for tests and ad-hoc verification; memory is O(size·metrics),
// so keep it to small spaces.
func Reference(sp *space.Space, set *core.MetricSet, topk int) (*Result, error) {
	if sp == nil || set == nil {
		return nil, fmt.Errorf("sweep: need both a space and a metric set")
	}
	enc := encoding.NewEncoder(sp)
	if enc.Width() != set.Inputs() {
		return nil, fmt.Errorf("sweep: space %q encodes to %d inputs, metric models expect %d",
			sp.Name, enc.Width(), set.Inputs())
	}
	if topk == 0 {
		topk = DefaultTopK
	}
	size := sp.Size()
	if topk > size {
		topk = size
	}
	metrics := set.Metrics()
	minimize := set.Minimize()

	xs := enc.EncodeRange(0, size, nil)
	cols := make([][]float64, len(metrics))
	for m := range cols {
		cols[m] = make([]float64, size)
	}
	set.Eval(xs, size, cols)
	pts := make([]Point, size)
	for i := range pts {
		v := make([]float64, len(metrics))
		for m := range cols {
			v[m] = cols[m][i]
		}
		pts[i] = Point{Index: i, Values: v}
	}

	res := &Result{Space: sp.Name, Points: size}
	for _, m := range metrics {
		res.Metrics = append(res.Metrics, MetricInfo{Name: m.Name, Minimize: m.Minimize})
	}
	if topk > 0 {
		for m := range metrics {
			order := make([]int, size)
			for i := range order {
				order[i] = i
			}
			sortByMetric(order, pts, m, minimize[m])
			lead := make([]Point, topk)
			for i := range lead {
				lead[i] = pts[order[i]]
			}
			res.TopK = append(res.TopK, lead)
		}
	}
	// A point is on the frontier iff nothing dominates it and it is the
	// lowest-indexed member of its exact-value class.
	for i := range pts {
		keep := true
		for j := range pts {
			if j == i {
				continue
			}
			if pareto.Dominates(minimize, pts[j].Values, pts[i].Values) ||
				(pareto.EqualValues(pts[j].Values, pts[i].Values) && pts[j].Index < pts[i].Index) {
				keep = false
				break
			}
		}
		if keep {
			res.Frontier = append(res.Frontier, pts[i])
		}
	}
	return res, nil
}

// sortByMetric orders point positions best-first on one metric.
func sortByMetric(order []int, pts []Point, m int, minimize bool) {
	sort.Slice(order, func(i, j int) bool {
		a, b := pts[order[i]], pts[order[j]]
		return pareto.Better(minimize, a.Values[m], b.Values[m], a.Index, b.Index)
	})
}
