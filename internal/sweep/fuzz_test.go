package sweep

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fuzzPoints decodes raw fuzz bytes into a small point set over 1–3
// metrics. Values are quantized to a handful of levels so ties, exact
// duplicates and dominance chains all occur routinely instead of
// almost never. Bytes ≥ 250 decode to non-finite values (NaN, ±Inf) so
// the fuzzer also exercises the frontier's unrankable-point rejection;
// bytes below that decode exactly as they did before the rejection
// existed, keeping the checked-in corpus meaningful.
func fuzzPoints(data []byte) (minimize []bool, pts []Point) {
	if len(data) < 2 {
		return nil, nil
	}
	nm := int(data[0])%3 + 1
	minimize = make([]bool, nm)
	for m := range minimize {
		minimize[m] = data[1]&(1<<m) != 0
	}
	data = data[2:]
	for i := 0; i+nm <= len(data) && len(pts) < 64; i += nm {
		v := make([]float64, nm)
		for m := 0; m < nm; m++ {
			switch b := data[i+m]; {
			case b >= 254:
				v[m] = math.NaN()
			case b >= 252:
				v[m] = math.Inf(1)
			case b >= 250:
				v[m] = math.Inf(-1)
			default:
				v[m] = float64(b % 5)
			}
		}
		pts = append(pts, Point{Index: len(pts), Values: v})
	}
	return minimize, pts
}

// finiteValues reports whether every metric value is rankable.
func finiteValues(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// refFrontier is the O(n²) transcription of the frontier definition: a
// point survives iff nothing weakly dominates it and it is the
// lowest-indexed member of its exact-value class.
func refFrontier(minimize []bool, pts []Point) []Point {
	var out []Point
	for i := range pts {
		keep := true
		for j := range pts {
			if j == i {
				continue
			}
			if dominates(minimize, pts[j].Values, pts[i].Values) ||
				(equalValues(pts[j].Values, pts[i].Values) && pts[j].Index < pts[i].Index) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, pts[i])
		}
	}
	return out
}

// FuzzParetoDominance fuzzes the streaming frontier reducer against
// the dominance definition: dominance must be irreflexive and
// antisymmetric, and the reducer must match the O(n²) reference for
// any offer order — the set-function property the chunk-order merge
// rests on. Points with non-finite values must be rejected at
// Offer with an error naming the point, leaving the frontier exactly
// as if they were never offered.
func FuzzParetoDominance(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 4, 1, 5, 0, 2, 2})
	f.Add([]byte{2, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4})
	f.Add([]byte{0, 3, 4, 4, 4, 4, 0, 1, 2, 3})
	// NaN (254+), +Inf (252) and -Inf (250) values mixed into an
	// otherwise ordinary stream: the reducer must reject exactly the
	// non-finite points and reduce the rest as if they were absent.
	f.Add([]byte{1, 0, 3, 1, 255, 2, 4, 1, 252, 0, 250, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		minimize, pts := fuzzPoints(data)
		if len(pts) == 0 {
			return
		}
		// Split out the unrankable points: they must error at Offer;
		// the finite remainder must reduce exactly as if offered alone.
		var finite, bad []Point
		for _, p := range pts {
			if finiteValues(p.Values) {
				finite = append(finite, p)
			} else {
				bad = append(bad, p)
			}
		}
		for _, p := range bad {
			fr := newFrontier(minimize)
			err := fr.Offer(p.Index, p.Values)
			if err == nil {
				t.Fatalf("offer of non-finite point %d (%v) succeeded", p.Index, p.Values)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("point %d", p.Index)) {
				t.Fatalf("rejection %q does not name point %d", err, p.Index)
			}
			if fr.Len() != 0 {
				t.Fatalf("rejected offer left %d points on the frontier", fr.Len())
			}
		}
		pts = finite
		if len(pts) == 0 {
			return
		}
		for i := range pts {
			if dominates(minimize, pts[i].Values, pts[i].Values) {
				t.Fatalf("point %d dominates itself", i)
			}
			for j := range pts {
				if dominates(minimize, pts[i].Values, pts[j].Values) &&
					dominates(minimize, pts[j].Values, pts[i].Values) {
					t.Fatalf("points %d and %d dominate each other", i, j)
				}
			}
		}
		want := refFrontier(minimize, pts)
		offer := func(order []int) []Point {
			fr := newFrontier(minimize)
			for _, i := range order {
				if err := fr.Offer(pts[i].Index, pts[i].Values); err != nil {
					t.Fatal(err)
				}
			}
			return fr.Sorted()
		}
		forward := make([]int, len(pts))
		reverse := make([]int, len(pts))
		rotated := make([]int, len(pts))
		for i := range pts {
			forward[i] = i
			reverse[i] = len(pts) - 1 - i
			rotated[i] = (i + len(pts)/2) % len(pts)
		}
		for _, order := range [][]int{forward, reverse, rotated} {
			if got := offer(order); !reflect.DeepEqual(got, want) {
				t.Fatalf("order %v: frontier %v, reference %v (minimize %v, points %v)",
					order, got, want, minimize, pts)
			}
		}
	})
}
