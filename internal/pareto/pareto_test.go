package pareto

import (
	"math"
	"reflect"
	"strings"
	"testing"
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

// TestMergePropagatesRejection: merge is offer-at-scale, so it carries
// the same non-finite rejection.
func TestMergePropagatesRejection(t *testing.T) {
	dir := []bool{true}
	bad := &Frontier{minimize: dir, pts: []Point{{Index: 4, Values: []float64{math.NaN()}}}}
	f := NewFrontier(dir)
	if err := f.Merge(bad); err == nil || !strings.Contains(err.Error(), "point 4") {
		t.Fatalf("merge err = %v, want rejection naming point 4", err)
	}
}
