package ann

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestMomentsParity compares AffineBatch and Moments with their scalar
// definitions, bit for bit: lo + v*span per element, and per row the
// member-order sum from +0 over members, one division, then the
// member-order sum of squared deviations from +0 and one division. It
// covers 0–19 rows (whole 4-row groups and every tail) of 1–11
// members, mean only, variance only and both, with values that include
// the edge inputs, -0 and magnitudes whose squares overflow.
func TestMomentsParity(t *testing.T) {
	rng := stats.NewRNG(0x3E4)
	draw := func(i int) float64 {
		switch {
		case i%13 == 5:
			return edgeInputs[(i/13)%len(edgeInputs)]
		case i%7 == 3:
			return 1e160 * rng.Range(-1, 1)
		}
		return rng.Range(-3, 3)
	}
	for members := 1; members <= 11; members++ {
		for rows := 0; rows < 20; rows++ {
			raw := make([]float64, members*rows)
			for i := range raw {
				raw[i] = draw(i)
			}
			lo, span := rng.Range(-2, 0), rng.Range(0.5, 4)
			got := append([]float64(nil), raw...)
			AffineBatch(got, lo, span)
			want := append([]float64(nil), raw...)
			for i, v := range want {
				want[i] = lo + v*span
			}
			sameBits(t, "AffineBatch", members, rows, got, want)

			for _, cols := range [][2]bool{{true, true}, {true, false}, {false, true}} {
				var mean, variance []float64
				if cols[0] {
					mean = make([]float64, rows)
				}
				if cols[1] {
					variance = make([]float64, rows)
				}
				Moments(want, members, mean, variance)
				for r := 0; r < rows; r++ {
					var sum float64
					for m := 0; m < members; m++ {
						sum += want[m*rows+r]
					}
					mu := sum / float64(members)
					var ss float64
					for m := 0; m < members; m++ {
						d := want[m*rows+r] - mu
						ss += d * d
					}
					if mean != nil {
						sameBits(t, "Moments mean", members, rows, mean[r:r+1], []float64{mu})
					}
					if variance != nil {
						sameBits(t, "Moments variance", members, rows, variance[r:r+1], []float64{ss / float64(members)})
					}
				}
			}
		}
	}
}

func sameBits(t *testing.T, what string, members, rows int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, %d members × %d rows: value %d: kernel %g (bits %x), scalar %g (bits %x)",
				what, members, rows, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
