package ann

import (
	"math"
	"testing"
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
// the scalar and batched paths: non-finite, signed zero,
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
// on every edge input for all four activations — the batched
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
