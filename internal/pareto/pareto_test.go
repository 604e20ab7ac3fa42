package pareto

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

func indices(pts []Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.Index
	}
	return out
}

// TestOfferRejectsNonFinite: NaN and ±Inf values error naming the flat
// index and leave the frontier untouched.
func TestOfferRejectsNonFinite(t *testing.T) {
	f := NewFrontier([]bool{false, true})
	if err := f.Offer(3, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{
		{math.NaN(), 1},
		{1, math.Inf(1)},
		{math.Inf(-1), 1},
	} {
		err := f.Offer(7, bad)
		if err == nil {
			t.Fatalf("offer of %v succeeded", bad)
		}
		if !strings.Contains(err.Error(), "point 7") {
			t.Fatalf("rejection %q does not name point 7", err)
		}
	}
	if got := indices(f.Sorted()); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("rejections disturbed the frontier: %v", got)
	}
}

// TestCheckValuesNamesMetric: the error pinpoints which metric column
// carried the unrankable value.
func TestCheckValuesNamesMetric(t *testing.T) {
	err := CheckValues(12, []float64{0.5, math.NaN(), 1})
	if err == nil {
		t.Fatal("NaN passed CheckValues")
	}
	for _, want := range []string{"point 12", "metric 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if err := CheckValues(12, []float64{0.5, -2, 1}); err != nil {
		t.Fatalf("finite values rejected: %v", err)
	}
}

// referenceFrontier is the O(n²) transcription of the frontier's
// definition: a point survives iff nothing weakly dominates it and it
// is the lowest-indexed member of its exact-value class. The result is
// in ascending index order.
func referenceFrontier(minimize []bool, pts []Point) []Point {
	out := []Point{}
	for _, p := range pts {
		keep := true
		for _, q := range pts {
			if Dominates(minimize, q.Values, p.Values) ||
				(EqualValues(q.Values, p.Values) && q.Index < p.Index) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	sortByIndex(out)
	return out
}

func sortByIndex(pts []Point) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].Index < pts[j-1].Index; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

// randomPoints draws n points over m metrics from a few levels per
// metric, so ties on metric 0, exact duplicates at different indices
// and dominance chains are common; a third of the draws copy an
// earlier point's values outright. Indices are a shuffled 0..n-1.
func randomPoints(rng *stats.RNG, n, m, levels int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		v := make([]float64, m)
		if i > 0 && rng.Intn(3) == 0 {
			copy(v, pts[rng.Intn(i)].Values)
		} else {
			for k := range v {
				v[k] = float64(rng.Intn(levels)) - 0.5*float64(levels)
			}
		}
		pts[i] = Point{Index: i, Values: v}
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pts[i].Index, pts[j].Index = pts[j].Index, pts[i].Index
	}
	return pts
}

// TestFrontierMatchesReference offers random point sets over 1, 2 and
// 3 metrics in every direction, one by one in random orders, and
// compares Sorted with the O(n²) reference. It also checks the frontier's own invariants after
// every offer: members sorted best-first on metric 0, and on two
// metrics strictly ordered on both.
func TestFrontierMatchesReference(t *testing.T) {
	rng := stats.NewRNG(0xF207)
	for m := 1; m <= 3; m++ {
		for dirs := 0; dirs < 1<<m; dirs++ {
			minimize := make([]bool, m)
			for k := range minimize {
				minimize[k] = dirs&(1<<k) != 0
			}
			for trial := 0; trial < 40; trial++ {
				n := 1 + rng.Intn(120)
				pts := randomPoints(rng, n, m, 2+rng.Intn(6))
				want := referenceFrontier(minimize, pts)
				name := fmt.Sprintf("m=%d minimize=%v trial %d", m, minimize, trial)

				order := rng.Perm(n)
				f := NewFrontier(minimize)
				for _, i := range order {
					if err := f.Offer(pts[i].Index, pts[i].Values); err != nil {
						t.Fatal(err)
					}
					checkSortedInvariant(t, name, f)
				}
				if got := f.Sorted(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: offered one by one: %v, reference %v", name, got, want)
				}
			}
		}
	}
}

// checkSortedInvariant fails unless f's members are sorted best-first
// on metric 0, the hint is a member or -1, and, on two metrics, no two
// members tie on metric 0 and metric 1 strictly improves.
func checkSortedInvariant(t *testing.T, name string, f *Frontier) {
	t.Helper()
	if f.hint < -1 || f.hint >= f.Len() {
		t.Fatalf("%s: hint %d outside a frontier of %d", name, f.hint, f.Len())
	}
	for i := 1; i < f.Len(); i++ {
		a, b := f.member(i-1), f.member(i)
		if Better(f.minimize[0], b[0], a[0], 0, 0) {
			t.Fatalf("%s: member %d (%v) is better on metric 0 than member %d (%v)", name, i, b, i-1, a)
		}
		if len(a) == 2 && (a[0] == b[0] || !Better(f.minimize[1], b[1], a[1], 0, 0)) {
			t.Fatalf("%s: members %v then %v break the two-metric order", name, a, b)
		}
	}
}

// TestFrontierSortedIsFresh: Sorted's points do not change when the
// frontier takes later offers.
func TestFrontierSortedIsFresh(t *testing.T) {
	f := NewFrontier([]bool{false, false})
	for i, v := range [][]float64{{1, 3}, {2, 2}, {3, 1}} {
		if err := f.Offer(i, v); err != nil {
			t.Fatal(err)
		}
	}
	got := f.Sorted()
	want := []Point{{0, []float64{1, 3}}, {1, []float64{2, 2}}, {2, []float64{3, 1}}}
	if err := f.Offer(3, []float64{4, 4}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sorted's points changed under a later offer: %v, want %v", got, want)
	}
	if got := indices(f.Sorted()); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("frontier after a dominating offer: %v, want [3]", got)
	}
}

// TestFrontierDominatedOfferAllocatesNothing: an offer that does not
// join the frontier, through the hint or through the binary search,
// allocates nothing, on one, two and three metrics.
func TestFrontierDominatedOfferAllocatesNothing(t *testing.T) {
	for m := 1; m <= 3; m++ {
		minimize := make([]bool, m)
		f := NewFrontier(minimize)
		for i := 0; i < 8; i++ {
			v := make([]float64, m)
			v[0] = float64(10 + i)
			if m > 1 {
				v[1] = float64(20 - i)
			}
			if err := f.Offer(i, v); err != nil {
				t.Fatal(err)
			}
		}
		low := make([]float64, m) // dominated by every member
		mid := make([]float64, m) // dominated by some members only
		mid[0] = 11.5
		for _, v := range [][]float64{low, mid} {
			v := v
			if allocs := testing.AllocsPerRun(100, func() {
				if err := f.Offer(100, v); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("m=%d: dominated offer of %v allocated %v times", m, v, allocs)
			}
		}
	}
}
