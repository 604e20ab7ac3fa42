// Package sweep evaluates entire design spaces through trained
// ensembles — the paper's payoff move. Simulation affords a few
// hundred points; the predictive models make the other 99 % cheap, so
// the natural query shifts from "score these points" to "rank the
// whole space": best-k configurations per metric, and the Pareto
// frontier over several predicted metrics at once (performance vs.
// energy across model bundles, or performance vs. prediction variance
// as a confidence axis).
//
// The engine is streaming: one loop on the caller's goroutine takes
// the space in fixed-size chunks of flat indices, in ascending order,
// never materializing the cross product. It scores each chunk through
// core.RangeEvaluator, whose par.For over the chunk's 512-row pieces is
// the sweep's one fan-out: layer 0 comes from per-axis product tables
// and shared prefix sums, so no point is encoded, except where that
// path does not apply and rows are encoded as Reference encodes them.
// It then offers the chunk's rows to one bounded top-k heap per metric
// and one Pareto frontier. Chunk boundaries depend only on ChunkSize,
// each row is scored on its own, and every reduction is a total order
// (ties break on the lower flat index; exactly equal metric vectors
// collapse onto the lowest index), so the output is bit-identical for
// any worker count, and parity-tested against the naive
// materialize-everything Reference.
package sweep

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/pareto"
	"repro/internal/space"
)

// DefaultChunkSize is the enumeration granularity when Config leaves
// it zero: big enough to keep the batched kernels in their blocked
// regime, small enough that a chunk's metric columns stay
// cache-friendly.
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
	// ChunkSize is the number of points the loop scores and reduces
	// at a time (0 = DefaultChunkSize; anything past the space's size
	// means one chunk). Results are bit-identical for any setting.
	ChunkSize int
	// Workers bounds the goroutines that score a chunk (0 =
	// GOMAXPROCS, negative = 1); the reduction runs on the caller's
	// goroutine. A chunk splits into 512-row pieces, so one of
	// DefaultChunkSize rows feeds up to 8 workers, and a chunk of 512
	// rows or fewer scores on the caller's goroutine. Output bits do
	// not depend on it.
	Workers int
	// MaxFrontier fails the sweep if the Pareto frontier outgrows it
	// (0 = DefaultMaxFrontier, negative = unbounded). The check runs
	// after each chunk, so it trips at the same point count for any
	// worker setting.
	MaxFrontier int
	// OnProgress, when non-nil, is called on the Run goroutine after
	// each chunk, in chunk order.
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

// Run sweeps every point of sp through the metric set and reduces the
// stream into per-metric top-k leaderboards and the Pareto frontier.
// The encoder is derived from sp, so the metric set's ensembles must
// have been trained on sp's encoding (bundle loading guarantees this
// for bundle-backed metrics). Cancelling ctx abandons the sweep at the
// next chunk and returns the context's error.
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
	// The column buffers are sized by the chunk, so a chunk larger than
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

	metrics := set.Metrics()
	ev := set.NewRangeEvaluator(enc, cfg.Workers)
	red := newReducer(set.Minimize(), topk)
	cols := make([][]float64, len(metrics))
	view := make([][]float64, len(metrics))
	for m := range cols {
		cols[m] = make([]float64, chunk)
	}
	// Chunks in ascending index order, which the reducer's hint, the
	// frontier cap's trip count and the first error reported rely on.
	for lo := 0; lo < size; lo += chunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows := min(size, lo+chunk) - lo
		for m := range cols {
			view[m] = cols[m][:rows]
		}
		ev.Eval(lo, rows, view)
		if err := red.checkFinite(lo, view); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		red.offerFront(lo, view)
		for _, t := range red.tops {
			t.offerColumn(lo, view, red.row)
		}
		if maxFrontier > 0 && red.front.Len() > maxFrontier {
			return nil, fmt.Errorf("sweep: Pareto frontier exceeds %d points after %d of %d swept — the metric set is likely degenerate (one axis both maximized and minimized); raise Config.MaxFrontier (negative = unbounded) if the frontier is genuinely this large",
				maxFrontier, lo+rows, size)
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(lo+rows, size)
		}
	}

	res := &Result{
		Space:    sp.Name,
		Points:   size,
		Frontier: red.front.Sorted(),
	}
	for _, m := range metrics {
		res.Metrics = append(res.Metrics, MetricInfo{Name: m.Name, Minimize: m.Minimize})
	}
	if topk > 0 {
		for _, t := range red.tops {
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
