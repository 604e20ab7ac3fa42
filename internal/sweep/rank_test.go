package sweep

import (
	"reflect"
	"testing"

	"repro/internal/pareto"
	"repro/internal/stats"
)

func frontierOf(minimize []bool, pts []Point) []Point {
	f := pareto.NewFrontier(minimize)
	for _, p := range pts {
		if err := f.Offer(p.Index, p.Values); err != nil {
			panic(err)
		}
	}
	return append([]Point(nil), f.Sorted()...)
}

func indices(pts []Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.Index
	}
	return out
}

// TestFrontierDominance covers the basic two-axis cases: dominated
// points drop, incomparable points coexist, and a newcomer evicts
// everything it dominates.
func TestFrontierDominance(t *testing.T) {
	maxBoth := []bool{false, false}
	got := frontierOf(maxBoth, []Point{
		{Index: 0, Values: []float64{1, 1}},
		{Index: 1, Values: []float64{2, 0.5}},   // incomparable with 0
		{Index: 2, Values: []float64{0.5, 0.5}}, // dominated by both
		{Index: 3, Values: []float64{3, 2}},     // dominates everything so far
	})
	if want := []int{3}; !reflect.DeepEqual(indices(got), want) {
		t.Fatalf("frontier = %v, want %v", indices(got), want)
	}

	got = frontierOf(maxBoth, []Point{
		{Index: 0, Values: []float64{1, 3}},
		{Index: 1, Values: []float64{2, 2}},
		{Index: 2, Values: []float64{3, 1}},
	})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(indices(got), want) {
		t.Fatalf("incomparable chain = %v, want %v", indices(got), want)
	}
}

// TestFrontierDirections honors per-metric minimize flags: perf up,
// energy down.
func TestFrontierDirections(t *testing.T) {
	dir := []bool{false, true}
	got := frontierOf(dir, []Point{
		{Index: 0, Values: []float64{1.0, 5}},
		{Index: 1, Values: []float64{1.5, 7}}, // faster but hungrier: stays
		{Index: 2, Values: []float64{0.9, 6}}, // slower and hungrier than 0: dominated
		{Index: 3, Values: []float64{1.0, 4}}, // same perf as 0, cheaper: evicts 0
	})
	if want := []int{1, 3}; !reflect.DeepEqual(indices(got), want) {
		t.Fatalf("frontier = %v, want %v", indices(got), want)
	}
}

// TestFrontierDuplicateCollapse: exactly equal metric vectors collapse
// onto the lowest index, regardless of arrival order.
func TestFrontierDuplicateCollapse(t *testing.T) {
	dir := []bool{false, false}
	pts := []Point{
		{Index: 5, Values: []float64{2, 2}},
		{Index: 1, Values: []float64{2, 2}},
		{Index: 9, Values: []float64{2, 2}},
		{Index: 3, Values: []float64{1, 3}},
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}} {
		shuffled := make([]Point, len(pts))
		for i, j := range order {
			shuffled[i] = pts[j]
		}
		got := frontierOf(dir, shuffled)
		if want := []int{1, 3}; !reflect.DeepEqual(indices(got), want) {
			t.Fatalf("order %v: frontier = %v, want %v", order, indices(got), want)
		}
	}
}

// TestFrontierEqualOnOneAxis: equality on one axis is not dominance
// unless the other axis strictly wins.
func TestFrontierEqualOnOneAxis(t *testing.T) {
	dir := []bool{false, false}
	got := frontierOf(dir, []Point{
		{Index: 0, Values: []float64{2, 1}},
		{Index: 1, Values: []float64{2, 3}}, // equal on axis 0, strictly better on 1: evicts 0
	})
	if want := []int{1}; !reflect.DeepEqual(indices(got), want) {
		t.Fatalf("frontier = %v, want %v", indices(got), want)
	}
}

// TestFrontierSingleMetric: with one axis the frontier degenerates to
// the single best point, duplicates collapsed.
func TestFrontierSingleMetric(t *testing.T) {
	got := frontierOf([]bool{true}, []Point{
		{Index: 4, Values: []float64{3}},
		{Index: 7, Values: []float64{1}},
		{Index: 2, Values: []float64{1}},
		{Index: 9, Values: []float64{2}},
	})
	if want := []int{2}; !reflect.DeepEqual(indices(got), want) {
		t.Fatalf("single-metric frontier = %v, want %v", indices(got), want)
	}
}

// TestFrontierMergeEqualsSequential: merging per-shard frontiers must
// equal one sequential pass — the property chunked reduction rests on.
func TestFrontierMergeEqualsSequential(t *testing.T) {
	dir := []bool{false, true, false}
	rng := stats.NewRNG(7)
	var pts []Point
	for i := 0; i < 400; i++ {
		pts = append(pts, Point{Index: i, Values: []float64{
			float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(8)),
		}})
	}
	want := frontierOf(dir, pts)
	for _, shard := range []int{1, 3, 64, 400} {
		merged := pareto.NewFrontier(dir)
		for lo := 0; lo < len(pts); lo += shard {
			local := pareto.NewFrontier(dir)
			for _, p := range pts[lo:min(lo+shard, len(pts))] {
				if err := local.Offer(p.Index, p.Values); err != nil {
					t.Fatal(err)
				}
			}
			if err := merged.Merge(local); err != nil {
				t.Fatal(err)
			}
		}
		if got := merged.Sorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: merged frontier %v != sequential %v", shard, indices(got), indices(want))
		}
	}
}

// TestTopKOrderingAndTies: best-first output with ties broken toward
// the lower index, under both directions.
func TestTopKOrderingAndTies(t *testing.T) {
	tk := newTopK(0, false, 3)
	for _, p := range []Point{
		{Index: 10, Values: []float64{1}}, {Index: 3, Values: []float64{5}}, {Index: 8, Values: []float64{5}},
		{Index: 1, Values: []float64{2}}, {Index: 4, Values: []float64{4}},
	} {
		tk.offer(p.Index, p.Values)
	}
	if want := []int{3, 8, 4}; !reflect.DeepEqual(indices(tk.ranked()), want) {
		t.Fatalf("maximize top-3 = %v, want %v", indices(tk.ranked()), want)
	}

	tk = newTopK(0, true, 2)
	for _, p := range []Point{
		{Index: 5, Values: []float64{2}}, {Index: 2, Values: []float64{2}}, {Index: 7, Values: []float64{1}},
	} {
		tk.offer(p.Index, p.Values)
	}
	if want := []int{7, 2}; !reflect.DeepEqual(indices(tk.ranked()), want) {
		t.Fatalf("minimize top-2 = %v, want %v", indices(tk.ranked()), want)
	}
}

// TestTopKMergeEqualsSequential mirrors the frontier merge property
// for the leaderboards.
func TestTopKMergeEqualsSequential(t *testing.T) {
	rng := stats.NewRNG(11)
	var pts []Point
	for i := 0; i < 300; i++ {
		pts = append(pts, Point{Index: i, Values: []float64{float64(rng.Intn(12))}})
	}
	seq := newTopK(0, false, 10)
	for _, p := range pts {
		seq.offer(p.Index, p.Values)
	}
	want := append([]Point(nil), seq.ranked()...)
	for _, shard := range []int{1, 7, 128} {
		merged := newTopK(0, false, 10)
		for lo := 0; lo < len(pts); lo += shard {
			local := newTopK(0, false, 10)
			for _, p := range pts[lo:min(lo+shard, len(pts))] {
				local.offer(p.Index, p.Values)
			}
			merged.merge(local)
		}
		if got := merged.ranked(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: merged top-k %v != sequential %v", shard, indices(got), indices(want))
		}
	}
}

// TestTopKSmallerPool: k larger than the candidate pool returns the
// whole pool, ranked.
func TestTopKSmallerPool(t *testing.T) {
	tk := newTopK(0, false, 10)
	tk.offer(1, []float64{1})
	tk.offer(2, []float64{3})
	if want := []int{2, 1}; !reflect.DeepEqual(indices(tk.ranked()), want) {
		t.Fatalf("ranked = %v, want %v", indices(tk.ranked()), want)
	}
}
