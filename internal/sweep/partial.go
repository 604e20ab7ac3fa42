package sweep

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/pareto"
)

// Partial is the serializable reduction of one contiguous shard of a
// sweep: per-metric top-k leaderboards (ranked best-first) plus the
// shard-local Pareto frontier (ascending flat index), every point
// addressed by its flat index in the *full* space. It is the unit of
// distribution — a serve node computes one per /v1/sweep/shard
// request, and a coordinator merges them back together.
//
// Partials form an associative algebra under Merge: for any split
// points a ≤ b ≤ c, merging the partials over [a,b) and [b,c) yields
// byte-for-byte the partial over [a,c), because both reductions are
// pure functions of the covered point *set* — top-k keeps the best k
// of the union under the total order (value, then lower index) and the
// frontier keeps the non-dominated subset with exact-duplicate vectors
// collapsed onto their lowest index. JSON round-trips preserve the
// algebra bit for bit: encoding/json renders float64 with the shortest
// representation that parses back to the same bits.
type Partial struct {
	// Space names the design space; Start/End is the half-open
	// flat-index range this partial covers.
	Space string `json:"space"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	// K is the resolved per-metric leaderboard size (0 = frontier
	// only); partials must agree on it to merge.
	K int `json:"k"`
	// Kernel names the kernel tier the shard ran under ("" = exact,
	// matching partials from nodes that predate kernel tiers). The
	// tiers are only bit-identical within a mode, so Merge refuses to
	// combine partials computed under different kernels.
	Kernel string `json:"kernel,omitempty"`
	// Metrics names the value columns of every Point, in order, with
	// their ranking directions.
	Metrics []MetricInfo `json:"metrics"`
	// TopK holds one best-first leaderboard per metric (omitted when
	// K == 0). A shard shorter than K keeps fewer points.
	TopK [][]Point `json:"topk,omitempty"`
	// Frontier is the shard-local Pareto-optimal set, in ascending
	// index order.
	Frontier []Point `json:"frontier"`
}

// kernelLabel renders a kernel mode as the wire label: the exact
// default stays the empty string so documents and partials from
// pre-kernel-tier nodes compare (and merge) as exact.
func kernelLabel(m ann.KernelMode) string {
	if m == ann.KernelExact {
		return ""
	}
	return m.String()
}

// kernelOrExact names a wire label for error messages.
func kernelOrExact(label string) string {
	if label == "" {
		return "exact"
	}
	return label
}

// minimizeDirs extracts the per-column ranking directions.
func (p *Partial) minimizeDirs() []bool {
	dirs := make([]bool, len(p.Metrics))
	for i, m := range p.Metrics {
		dirs[i] = m.Minimize
	}
	return dirs
}

// metricsEqual reports whether two partials rank by the same columns.
func metricsEqual(a, b []MetricInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge folds o — the partial covering the range immediately after
// p's — into p, leaving p covering [p.Start, o.End) in canonical form.
// Merging every shard of a space in range order reproduces the
// single-process sweep bit for bit.
func (p *Partial) Merge(o *Partial) error {
	switch {
	case o == nil:
		return fmt.Errorf("sweep: cannot merge a nil partial")
	case o.Space != p.Space:
		return fmt.Errorf("sweep: cannot merge partials over spaces %q and %q", p.Space, o.Space)
	case o.Start != p.End:
		return fmt.Errorf("sweep: partial ranges [%d,%d) and [%d,%d) are not adjacent",
			p.Start, p.End, o.Start, o.End)
	case o.K != p.K:
		return fmt.Errorf("sweep: partials disagree on leaderboard size (%d vs %d)", p.K, o.K)
	case o.Kernel != p.Kernel:
		return fmt.Errorf("sweep: partials ran different kernel tiers (%q vs %q); results are only bit-identical within one mode",
			kernelOrExact(p.Kernel), kernelOrExact(o.Kernel))
	case !metricsEqual(p.Metrics, o.Metrics):
		return fmt.Errorf("sweep: partials rank by different metrics (%v vs %v)", p.Metrics, o.Metrics)
	}
	minimize := p.minimizeDirs()
	if p.K > 0 {
		if len(p.TopK) != len(p.Metrics) || len(o.TopK) != len(o.Metrics) {
			return fmt.Errorf("sweep: partial carries %d/%d leaderboards for %d metrics",
				len(p.TopK), len(o.TopK), len(p.Metrics))
		}
		for m := range p.Metrics {
			t := newTopK(m, minimize[m], p.K)
			for _, pt := range p.TopK[m] {
				t.offer(pt.Index, pt.Values)
			}
			for _, pt := range o.TopK[m] {
				t.offer(pt.Index, pt.Values)
			}
			p.TopK[m] = t.ranked()
		}
	}
	// p.Frontier is already canonical — mutually non-dominated with
	// duplicates collapsed — so seed the reducer with it directly and
	// offer only o's points: O(|o|·F) instead of rebuilding at O(F²)
	// per merge as the accumulated frontier grows.
	f := pareto.Resume(minimize, p.Frontier)
	for _, pt := range o.Frontier {
		if err := f.Offer(pt.Index, pt.Values); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	p.Frontier = f.Sorted()
	p.End = o.End
	return nil
}

// Result renders the partial as a result document. For a partial
// covering the whole space this is exactly what Run returns; the
// timing fields — the only non-deterministic ones — are left zero for
// the caller to stamp.
func (p *Partial) Result() *Result {
	res := &Result{
		Space:    p.Space,
		Points:   p.End - p.Start,
		Metrics:  append([]MetricInfo(nil), p.Metrics...),
		Kernel:   p.Kernel,
		Frontier: p.Frontier,
	}
	if p.K > 0 {
		res.TopK = p.TopK
	}
	return res
}
