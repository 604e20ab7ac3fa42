// Package pareto is the repo's dominance algebra: the Point type, the
// deterministic total order on single metrics, weak Pareto dominance
// over metric vectors, and the streaming Frontier reducer. It was
// extracted from internal/sweep so that acquisition (internal/core)
// can target predicted frontiers without importing the sweep engine —
// sweep depends on core, so the algebra has to live below both.
//
// Every operation here is a pure function of the point *set*: the
// frontier membership rules do not depend on arrival order, chunking
// or merge order, which is the foundation of the sweep engine's (and
// the acquisition subsystem's) bit-identity guarantee.
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Point is one scored design point: its flat index in the design space
// and its value on every metric, in metric-column order. The JSON tags
// are the sweep result document's format — do not change them.
type Point struct {
	Index  int       `json:"point"`
	Values []float64 `json:"values"`
}

// Better reports whether value a beats value b on one metric, with the
// deterministic tie-break on flat index that makes every reduction a
// total order: equal values rank the lower index first.
func Better(minimize bool, a, b float64, ai, bi int) bool {
	if a != b {
		if minimize {
			return a < b
		}
		return a > b
	}
	return ai < bi
}

// Dominates reports whether metric vector a weakly dominates b: at
// least as good on every metric and strictly better on one.
func Dominates(minimize []bool, a, b []float64) bool {
	strict := false
	for m := range a {
		switch {
		case a[m] == b[m]:
		case Better(minimize[m], a[m], b[m], 0, 0):
			strict = true
		default:
			return false
		}
	}
	return strict
}

// EqualValues reports whether two metric vectors are exactly equal.
func EqualValues(a, b []float64) bool {
	for m := range a {
		if a[m] != b[m] {
			return false
		}
	}
	return true
}

// CheckValues rejects metric vectors that cannot be ranked: NaN
// compares false against everything, so a NaN point would be neither
// dominated nor dominating — it would accumulate on a frontier and
// break the total order — and ±Inf saturates dominance the same way.
// The error names the flat index so the offending design point (or the
// oracle backend that produced it) is identifiable from the message.
func CheckValues(index int, values []float64) error {
	for m, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pareto: design point %d has non-finite value %v on metric %d; non-finite metrics cannot be ranked", index, v, m)
		}
	}
	return nil
}

// Frontier is the streaming Pareto reducer over every metric at once.
// A point survives iff no other point weakly dominates it; points with
// exactly equal metric vectors collapse onto the lowest index. Both
// rules are properties of the point set, not of arrival order, so the
// frontier is identical for any chunking, worker count, or merge
// order.
type Frontier struct {
	minimize []bool
	pts      []Point
}

// NewFrontier builds an empty frontier ranking by the given per-metric
// directions.
func NewFrontier(minimize []bool) *Frontier {
	return &Frontier{minimize: minimize}
}

// Len returns the current frontier size.
func (f *Frontier) Len() int { return len(f.pts) }

// Offer considers one candidate; values may be a reused buffer — it is
// copied only if the candidate joins the frontier. Non-finite values
// are rejected with an error naming the flat index (see CheckValues);
// a rejected offer leaves the frontier untouched.
//
// Rejections move the dominating point to the front of the scan order:
// a point that dominates once tends to dominate a long run of
// neighboring candidates, so the streaming common case exits after one
// comparison instead of O(frontier). The membership rules are
// properties of the point set, so internal order is free to permute —
// Sorted canonicalizes before anything observable.
func (f *Frontier) Offer(index int, values []float64) error {
	if err := CheckValues(index, values); err != nil {
		return err
	}
	for i := range f.pts {
		q := &f.pts[i]
		if EqualValues(q.Values, values) {
			if index < q.Index {
				q.Index = index // duplicate collapse: lowest index represents the class
			}
			return nil
		}
		if Dominates(f.minimize, q.Values, values) {
			if i > 0 {
				f.pts[0], f.pts[i] = f.pts[i], f.pts[0]
			}
			return nil
		}
	}
	// The candidate survives: evict everything it now dominates.
	kept := f.pts[:0]
	for _, q := range f.pts {
		if !Dominates(f.minimize, values, q.Values) {
			kept = append(kept, q)
		}
	}
	f.pts = append(kept, Point{Index: index, Values: append([]float64(nil), values...)})
	return nil
}

// Merge folds another frontier in.
func (f *Frontier) Merge(o *Frontier) error {
	for _, p := range o.pts {
		if err := f.Offer(p.Index, p.Values); err != nil {
			return err
		}
	}
	return nil
}

// Sorted returns the frontier in ascending index order — the canonical
// rendering every parity test compares bit for bit.
func (f *Frontier) Sorted() []Point {
	sort.Slice(f.pts, func(i, j int) bool { return f.pts[i].Index < f.pts[j].Index })
	return f.pts
}
