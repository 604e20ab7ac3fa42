package sweep

import (
	"container/heap"
	"sort"

	"repro/internal/pareto"
)

// Point is one scored design point — internal/pareto's Point, aliased
// so sweep result documents are unchanged by the algebra's extraction.
type Point = pareto.Point

// better, dominates and equalValues delegate to the shared dominance
// algebra in internal/pareto; the local names keep the sweep reducers
// reading as before the extraction.
func better(minimize bool, a, b float64, ai, bi int) bool {
	return pareto.Better(minimize, a, b, ai, bi)
}

func dominates(minimize []bool, a, b []float64) bool {
	return pareto.Dominates(minimize, a, b)
}

func equalValues(a, b []float64) bool {
	return pareto.EqualValues(a, b)
}

// newFrontier builds the streaming Pareto reducer (see pareto.Frontier
// for the membership rules and the bit-identity argument).
func newFrontier(minimize []bool) *pareto.Frontier {
	return pareto.NewFrontier(minimize)
}

// topK is the bounded per-metric leaderboard: a k-element heap whose
// root is the weakest kept point, so a full-space stream reduces in
// O(size·log k) with O(k) memory. offer copies values only when the
// candidate is actually kept.
type topK struct {
	metric   int // column this leaderboard ranks by
	minimize bool
	k        int
	pts      []Point
}

func newTopK(metric int, minimize bool, k int) *topK {
	if k < 0 {
		k = 0 // frontier-only sweep: every offer is a no-op
	}
	return &topK{metric: metric, minimize: minimize, k: k, pts: make([]Point, 0, k)}
}

// heap.Interface: the root is the point every candidate must beat.
func (t *topK) Len() int { return len(t.pts) }
func (t *topK) Less(i, j int) bool {
	return better(t.minimize, t.pts[j].Values[t.metric], t.pts[i].Values[t.metric], t.pts[j].Index, t.pts[i].Index)
}
func (t *topK) Swap(i, j int) { t.pts[i], t.pts[j] = t.pts[j], t.pts[i] }
func (t *topK) Push(x any)    { t.pts = append(t.pts, x.(Point)) }
func (t *topK) Pop() any {
	old := t.pts
	x := old[len(old)-1]
	t.pts = old[:len(old)-1]
	return x
}

// offer considers one candidate; values may be a reused buffer — it is
// copied only if the candidate enters the leaderboard.
func (t *topK) offer(index int, values []float64) {
	if t.k <= 0 {
		return
	}
	if len(t.pts) == t.k {
		root := &t.pts[0]
		if !better(t.minimize, values[t.metric], root.Values[t.metric], index, root.Index) {
			return
		}
		root.Index = index
		copy(root.Values, values)
		heap.Fix(t, 0)
		return
	}
	heap.Push(t, Point{Index: index, Values: append([]float64(nil), values...)})
}

// merge folds another leaderboard's kept points in.
func (t *topK) merge(o *topK) {
	for _, p := range o.pts {
		t.offer(p.Index, p.Values)
	}
}

// ranked returns the kept points best-first. The leaderboard is spent
// afterwards.
func (t *topK) ranked() []Point {
	sort.Slice(t.pts, func(i, j int) bool {
		return better(t.minimize, t.pts[i].Values[t.metric], t.pts[j].Values[t.metric], t.pts[i].Index, t.pts[j].Index)
	})
	return t.pts
}
