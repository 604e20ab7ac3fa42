package ann

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

var allActivations = []Activation{Sigmoid, Tanh, Linear, ReLU}

// apply is the scalar definition of each activation, the reference
// applyBatch must match bit for bit.
func (a Activation) apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// edgeInputs are the values most likely to expose a divergence between
// the scalar and batched exact paths: non-finite, signed zero,
// denormal, and range-extreme inputs.
var edgeInputs = []float64{
	math.NaN(),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64,
	1e308, -1e308, 710, -745, 1, -1,
}

// TestApplyBatchEdgeParity pins bit-level parity of apply vs applyBatch
// on every edge input for all four activations — the exact tier's
// activations must match their scalar definitions even off the happy
// path.
func TestApplyBatchEdgeParity(t *testing.T) {
	for _, act := range allActivations {
		batch := append([]float64(nil), edgeInputs...)
		act.applyBatch(batch)
		for i, x := range edgeInputs {
			want := act.apply(x)
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Errorf("%s: applyBatch(%g) = %g (bits %x), apply = %g (bits %x)",
					act, x, batch[i], math.Float64bits(batch[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestApplyBatchFastEdgeDeterminism pins the fast32 tier's documented
// edge behaviour: non-finite inputs clamp to the activation's
// saturation values (never a wild index or panic), and the fast32
// batch path is bit-identical to the scalar mathx functions on every
// edge input.
func TestApplyBatchFastEdgeDeterminism(t *testing.T) {
	for _, act := range allActivations {
		batch32 := make([]float32, len(edgeInputs))
		for i, x := range edgeInputs {
			batch32[i] = float32(x)
		}
		act.applyBatchFast32(batch32)
		for i, x := range edgeInputs {
			x32 := float32(x)
			var want float32
			switch act {
			case Sigmoid:
				want = mathx.Sigmoid32(x32)
			case Tanh:
				want = mathx.Tanh32(x32)
			case ReLU:
				want = x32
				if x32 < 0 {
					want = 0
				}
			default:
				want = x32
			}
			if math.Float32bits(batch32[i]) != math.Float32bits(want) {
				t.Errorf("%s fast32: batch(%g) = %g, scalar = %g", act, x, batch32[i], want)
			}
			if y := float64(batch32[i]); (act == Sigmoid || act == Tanh) && (math.IsNaN(y) || math.IsInf(y, 0)) {
				t.Errorf("%s fast32: input %g produced non-finite %g; fast tier must saturate", act, x, y)
			}
		}
	}
}

// FuzzFastActivations fuzzes the fast32 activation tier over (and
// beyond) the table reduction range, asserting the documented error
// bound against the exact activation for every finite input and
// deterministic saturation for the rest.
func FuzzFastActivations(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 15.999, -15.999, 16.001, -16.001, 7.999, -8.001, 1e-300, math.Inf(1), math.NaN()} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		x32 := float32(x)
		sig := float64(mathx.Sigmoid32(x32))
		tnh := float64(mathx.Tanh32(x32))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Saturation only; exact parity is not defined here.
			if math.IsNaN(sig) || math.IsNaN(tnh) {
				t.Fatalf("fast activations must not propagate NaN: Sigmoid32(%g)=%g Tanh32(%g)=%g", x, sig, x, tnh)
			}
			return
		}
		if d := math.Abs(sig - Sigmoid.apply(float64(x32))); d > 2e-6 {
			t.Errorf("Sigmoid32(%g): err %.3g > 2e-6", x, d)
		}
		if d := math.Abs(tnh - Tanh.apply(float64(x32))); d > 2e-6 {
			t.Errorf("Tanh32(%g): err %.3g > 2e-6", x, d)
		}
	})
}
