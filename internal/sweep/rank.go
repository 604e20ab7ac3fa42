package sweep

import (
	"container/heap"
	"sort"

	"repro/internal/pareto"
)

// Point is one scored design point — internal/pareto's Point, aliased
// so sweep result documents are unchanged by the algebra's extraction.
type Point = pareto.Point

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
	return pareto.Better(t.minimize, t.pts[j].Values[t.metric], t.pts[i].Values[t.metric], t.pts[j].Index, t.pts[i].Index)
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
		if !pareto.Better(t.minimize, values[t.metric], root.Values[t.metric], index, root.Index) {
			return
		}
		root.Index = index
		copy(root.Values, values)
		heap.Fix(t, 0)
		return
	}
	heap.Push(t, Point{Index: index, Values: append([]float64(nil), values...)})
}

// ranked returns the kept points best-first. The leaderboard is spent
// afterwards.
func (t *topK) ranked() []Point {
	sort.Slice(t.pts, func(i, j int) bool {
		return pareto.Better(t.minimize, t.pts[i].Values[t.metric], t.pts[j].Values[t.metric], t.pts[i].Index, t.pts[j].Index)
	})
	return t.pts
}

// offerColumn offers a chunk's rows, starting at flat index lo, by the
// leaderboard's column of cols, gathering a row's values into buf only
// when it enters: while the list is short of k, or when it beats the
// root. Rows are offered in ascending order, as offer row by row would,
// so the list ends the same.
func (t *topK) offerColumn(lo int, cols [][]float64, buf []float64) {
	if t.k <= 0 {
		return
	}
	for r, v := range cols[t.metric] {
		if len(t.pts) == t.k {
			if root := &t.pts[0]; !pareto.Better(t.minimize, v, root.Values[t.metric], lo+r, root.Index) {
				continue
			}
		}
		gather(buf, cols, r)
		t.offer(lo+r, buf)
	}
}

// gather copies row r of the metric columns into buf.
func gather(buf []float64, cols [][]float64, r int) {
	for m, c := range cols {
		buf[m] = c[r]
	}
}

// reducer is a sweep's reduction: the one Pareto frontier and one
// top-k list per metric, fed chunk by chunk in ascending index order.
// It carries hint, the values of the member that last rejected one of
// its rows (Frontier.Hint), each value times sign (+1 where the metric
// is maximized, -1 where minimized), so that a row whose signed values
// are all <= hint's is dominated by or equal to that point and is
// dropped inline, without a gather or a call.
//
// Dropping such a row leaves the frontier as it is: the hint point was
// offered before the row, so its index is lower, and a row it dominates
// or equals is not on the frontier.
type reducer struct {
	front  *pareto.Frontier
	tops   []*topK
	sign   []float64
	hint   []float64
	hinted bool
	row    []float64 // one row's values, gathered
}

func newReducer(minimize []bool, topk int) *reducer {
	r := &reducer{
		front: pareto.NewFrontier(minimize),
		sign:  make([]float64, len(minimize)),
		hint:  make([]float64, len(minimize)),
		row:   make([]float64, len(minimize)),
	}
	for m, min := range minimize {
		r.tops = append(r.tops, newTopK(m, min, topk))
		r.sign[m] = 1
		if min {
			r.sign[m] = -1
		}
	}
	return r
}

// checkFinite returns pareto.CheckValues' error for the lowest row of
// the chunk at flat index lo that holds a NaN or ±Inf, naming that
// row's first such metric, as offering the rows in order would; nil
// when every value is finite. Columns are scanned one by one, each up
// to the lowest bad row found so far.
func (red *reducer) checkFinite(lo int, cols [][]float64) error {
	bad := len(cols[0])
	for _, c := range cols {
		for r, v := range c[:bad] {
			if v-v != 0 { // NaN and ±Inf give NaN
				bad = r
				break
			}
		}
	}
	if bad == len(cols[0]) {
		return nil
	}
	gather(red.row, cols, bad)
	return pareto.CheckValues(lo+bad, red.row)
}

// offerFront offers the chunk's finite rows to the frontier in
// ascending order. A row the hint covers is dropped inline; any other is
// gathered and offered, and the hint then follows the frontier's own.
func (red *reducer) offerFront(lo int, cols [][]float64) {
	f := red.front
	for r := range cols[0] {
		covered := red.hinted
		for m := 0; covered && m < len(cols); m++ {
			covered = red.sign[m]*cols[m][r] <= red.hint[m]
		}
		if covered {
			continue
		}
		gather(red.row, cols, r)
		// The values are finite (checkFinite), so the offer cannot fail.
		_ = f.Offer(lo+r, red.row)
		if h := f.Hint(); h != nil {
			for m, v := range h {
				red.hint[m] = red.sign[m] * v
			}
			red.hinted = true
		}
	}
}
