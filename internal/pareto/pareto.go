// Package pareto is the repo's dominance algebra: the Point type, the
// deterministic total order on single metrics, weak Pareto dominance
// over metric vectors, and the streaming Frontier reducer. It was
// extracted from internal/sweep so that acquisition (internal/core)
// can target predicted frontiers without importing the sweep engine —
// sweep depends on core, so the algebra has to live below both.
//
// Every operation here is a pure function of the point *set*: the
// frontier membership rules do not depend on arrival order or
// chunking, which is the foundation of the sweep engine's (and
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
// frontier is identical for any chunking or worker count.
//
// Members are stored flat, sorted best-first on metric 0: idx holds
// their flat indices and vals their values, one run of len(minimize)
// per member. hint is the position of the member that last rejected an
// offer (-1 before any has), which the next offer is compared with
// first.
type Frontier struct {
	minimize []bool
	idx      []int
	vals     []float64
	hint     int
}

// NewFrontier builds an empty frontier ranking by the given per-metric
// directions. Every offered vector must hold one value per direction.
func NewFrontier(minimize []bool) *Frontier {
	return &Frontier{minimize: minimize, hint: -1}
}

// Len returns the current frontier size.
func (f *Frontier) Len() int { return len(f.idx) }

// Hint returns the values of the member that last rejected an offer,
// or nil before any has. The slice is the frontier's own storage:
// read it before the next Offer.
func (f *Frontier) Hint() []float64 {
	if f.hint < 0 {
		return nil
	}
	return f.member(f.hint)
}

func (f *Frontier) member(i int) []float64 {
	m := len(f.minimize)
	return f.vals[i*m : (i+1)*m : (i+1)*m]
}

// Offer considers one candidate; values may be a reused buffer — it is
// copied only if the candidate joins the frontier, and a candidate that
// does not join allocates nothing. Non-finite values are rejected with
// an error naming the flat index (see CheckValues); a rejected offer
// leaves the frontier untouched.
//
// The hint is checked first, then a binary search finds pos, the first
// member not strictly better than the candidate on metric 0. Members
// before pos cannot be dominated by the candidate, and members after
// the ones tying with it on metric 0 cannot dominate it.
//
//   - With two metrics no two members tie on metric 0 (the one better
//     on metric 1 would dominate the other), so metric 1 strictly
//     improves along the order. Only the last member not worse on
//     metric 0 can dominate or equal the candidate, and the members
//     the candidate dominates are the run from pos on that are not
//     better on metric 1: an offer is O(log F) plus one copy.
//   - With one metric the frontier holds one point, and the same steps
//     apply.
//   - With three or more metrics the prefix is scanned for a member
//     that dominates or equals the candidate, and the suffix for the
//     members it dominates.
func (f *Frontier) Offer(index int, values []float64) error {
	if err := CheckValues(index, values); err != nil {
		return err
	}
	if f.hint >= 0 && f.covers(f.hint, index, values) {
		return nil
	}
	m, n := len(f.minimize), len(f.idx)
	min0, v0 := f.minimize[0], values[0]
	pos, hi := 0, n
	for pos < hi {
		mid := int(uint(pos+hi) >> 1)
		if Better(min0, f.vals[mid*m], v0, 0, 0) {
			pos = mid + 1
		} else {
			hi = mid
		}
	}
	if m > 2 {
		for i := 0; i < n && (i < pos || f.vals[i*m] == v0); i++ {
			if f.covers(i, index, values) {
				f.hint = i
				return nil
			}
		}
		// Drop the suffix's members the candidate dominates, keeping the
		// others in order, then insert it at pos. A dropped hint moves
		// to the candidate, as in replace.
		kept, hint, evicted := pos, f.hint, false
		for i := pos; i < n; i++ {
			q := f.member(i)
			if Dominates(f.minimize, values, q) {
				evicted = evicted || i == hint
				continue
			}
			if i == hint {
				hint = kept
			}
			f.idx[kept] = f.idx[i]
			copy(f.vals[kept*m:], q)
			kept++
		}
		f.idx, f.vals, f.hint = f.idx[:kept], f.vals[:kept*m], hint
		f.replace(pos, pos, index, values)
		if evicted {
			f.hint = pos
		}
		return nil
	}
	last := pos - 1
	if pos < n && f.vals[pos*m] == v0 {
		last = pos
	}
	if last >= 0 && f.covers(last, index, values) {
		f.hint = last
		return nil
	}
	end := n // one metric: every member from pos on is worse
	if m == 2 {
		min1, v1 := f.minimize[1], values[1]
		for end = pos; end < n && !Better(min1, f.vals[end*m+1], v1, 0, 0); end++ {
		}
	}
	f.replace(pos, end, index, values)
	return nil
}

// covers reports whether member i dominates or equals the candidate; an
// equal candidate's index replaces the member's where it is lower
// (duplicate collapse: the lowest index represents the class).
func (f *Frontier) covers(i, index int, values []float64) bool {
	q := f.member(i)
	if EqualValues(q, values) {
		if index < f.idx[i] {
			f.idx[i] = index
		}
		return true
	}
	return Dominates(f.minimize, q, values)
}

// replace puts the candidate at pos in place of the members [pos, end),
// which it dominates. A hint among them moves to the candidate, which
// dominates every point they did.
func (f *Frontier) replace(pos, end, index int, values []float64) {
	m, n := len(f.minimize), len(f.idx)
	if end == pos {
		f.idx = append(f.idx, 0)
		f.vals = append(f.vals, values...)
		copy(f.idx[pos+1:], f.idx[pos:n])
		copy(f.vals[(pos+1)*m:], f.vals[pos*m:n*m])
	} else {
		copy(f.idx[pos+1:], f.idx[end:])
		copy(f.vals[(pos+1)*m:], f.vals[end*m:])
		n -= end - pos - 1
		f.idx, f.vals = f.idx[:n], f.vals[:n*m]
	}
	f.idx[pos] = index
	copy(f.vals[pos*m:], values)
	switch {
	case f.hint >= end:
		f.hint += pos + 1 - end
	case f.hint >= pos:
		f.hint = pos
	}
}

// Sorted returns the frontier in ascending index order — the canonical
// rendering every parity test compares bit for bit — as fresh points
// that later offers do not change.
func (f *Frontier) Sorted() []Point {
	m := len(f.minimize)
	vals := append([]float64(nil), f.vals...)
	pts := make([]Point, len(f.idx))
	for i, index := range f.idx {
		pts[i] = Point{Index: index, Values: vals[i*m : (i+1)*m : (i+1)*m]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Index < pts[j].Index })
	return pts
}
