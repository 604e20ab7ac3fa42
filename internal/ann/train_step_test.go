package ann

import (
	"math"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/stats"
)

// TestTrainStepVectorScalarParity runs TrainEarlyStopping's vector
// step (step16) beside Network.Train on twin networks with 1–20 inputs,
// 1–2 outputs and a sigmoid or tanh hidden layer, from random weights
// and non-zero momentum, with a random learning rate per step. After
// every step each weight and each momentum value must match bit for
// bit. Tanh matters: every golden training digest is sigmoid.
func TestTrainStepVectorScalarParity(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("the vector training step needs AVX2")
	}
	rng := stats.NewRNG(0x57E916)
	for inputs := 1; inputs <= 20; inputs++ {
		for outputs := 1; outputs <= 2; outputs++ {
			for _, act := range []Activation{Sigmoid, Tanh} {
				cfg := Config{
					Inputs: inputs, Hidden: []int{16}, Outputs: outputs,
					HiddenAct: act, OutputAct: []Activation{Linear, Sigmoid}[outputs-1],
					LearningRate: 0.1, Momentum: rng.Range(0.1, 0.8), InitRange: 1.5,
					Seed: rng.Uint64(),
				}
				ref, vec := New(cfg), New(cfg)
				for i := range ref.dwPrev {
					ref.dwPrev[i] = rng.Range(-0.05, 0.05)
				}
				copy(vec.dwPrev, ref.dwPrev)
				s := newStep16(vec)
				x, target := make([]float64, inputs), make([]float64, outputs)
				for step := 0; step < 300; step++ {
					for i := range x {
						x[i] = rng.Range(-1, 2)
					}
					for i := range target {
						target[i] = rng.Range(-0.5, 1.5)
					}
					lr := rng.Range(0.001, 0.3)
					ref.Train(x, target, lr)
					s.step(x, target, lr)
					s.sync()
					for _, buf := range []struct {
						name      string
						want, got []float64
					}{{"weight", ref.w, vec.w}, {"momentum", ref.dwPrev, vec.dwPrev}} {
						for i, w := range buf.want {
							if math.Float64bits(buf.got[i]) != math.Float64bits(w) {
								t.Fatalf("inputs=%d outputs=%d %s hidden layer, step %d: %s %d: vector %g (bits %x), Train %g (bits %x)",
									inputs, outputs, act, step, buf.name, i, buf.got[i], math.Float64bits(buf.got[i]), w, math.Float64bits(w))
							}
						}
					}
				}
				for i, w := range ref.w {
					if math.IsNaN(w) || math.IsInf(w, 0) {
						t.Fatalf("inputs=%d outputs=%d %s: weight %d diverged to %g; the comparison proved nothing", inputs, outputs, act, i, w)
					}
				}
			}
		}
	}
}

// TestTrainStepFollowsGODEBUG reruns the step parity test in a child
// process with GODEBUG=cpu.fma=off, where (below GOAMD64=v3) both
// sides take the scalar sigmoid; the vector step must still match
// Train.
func TestTrainStepFollowsGODEBUG(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("the vector training step needs AVX2")
	}
	runWithoutFMA(t, "TestTrainStepVectorScalarParity")
}

// BenchmarkTrainStep times one per-example training step of a network
// of the memory study's shape (10 inputs, 16 sigmoid hidden units, one
// linear output): scalar is Network.Train, vector the step
// TrainEarlyStopping selects (step16 where trainAsm16 holds, Train
// otherwise). BENCH_setup.json gates vector as a same-run ratio to
// scalar, so the ratio falls to 1 wherever the vector step is off.
func BenchmarkTrainStep(b *testing.B) {
	cfg := PaperConfig(10, 1)
	cfg.LearningRate = 0.1
	rng := stats.NewRNG(5)
	const rows = 256
	xs, ys := make([]float64, rows*cfg.Inputs), make([]float64, rows)
	for i := range xs {
		xs[i] = rng.Float64() // encoded design points live in [0,1)
	}
	for i := range ys {
		ys[i] = rng.Range(0.1, 0.9)
	}
	for _, bc := range []struct {
		name string
		step func(n *Network) func(x, target []float64, lr float64)
	}{
		{"scalar", func(n *Network) func(x, target []float64, lr float64) {
			return func(x, target []float64, lr float64) { n.Train(x, target, lr) }
		}},
		{"vector", func(n *Network) func(x, target []float64, lr float64) {
			step, _ := trainStep(n)
			return step
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			step := bc.step(New(cfg))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % rows
				step(xs[r*cfg.Inputs:(r+1)*cfg.Inputs], ys[r:r+1], cfg.LearningRate)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
