package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestStdDevKnown(t *testing.T) {
	// Population SD of {2,4,4,4,5,5,7,9} is exactly 2.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestStdDevDegenerate(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Fatal("StdDev of degenerate input should be 0")
	}
	if StdDev([]float64{4, 4, 4}) != 0 {
		t.Fatal("StdDev of constants should be 0")
	}
}

func TestMeanStdMatchesSeparate(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		xs := make([]float64, int(n%40)+2)
		for i := range xs {
			xs[i] = r.Range(-10, 10)
		}
		m, sd := MeanStd(xs)
		return almostEqual(m, Mean(xs), 1e-9) && almostEqual(sd, StdDev(xs), 1e-9)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
}

func TestPercentileUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	_ = Percentile(xs, 50)
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}
