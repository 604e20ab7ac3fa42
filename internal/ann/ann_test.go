package ann

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func smallConfig(in, out int) Config {
	return Config{
		Inputs: in, Hidden: []int{8}, Outputs: out,
		HiddenAct: Sigmoid, OutputAct: Linear,
		LearningRate: 0.1, Momentum: 0.5, InitRange: 0.1, Seed: 7,
	}
}

func TestConfigValidation(t *testing.T) {
	// Each rejection must name the offending field (the repo-wide
	// errfield convention), so a misconfiguration points at the knob
	// to fix.
	bad := []struct {
		cfg  Config
		name string
	}{
		{Config{Inputs: 0, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1}, "Inputs"},
		{Config{Inputs: 2, Hidden: []int{0}, Outputs: 1, LearningRate: 0.1}, "Hidden[0]"},
		{Config{Inputs: 2, Hidden: []int{4, -3}, Outputs: 1, LearningRate: 0.1}, "Hidden[1]"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 0, LearningRate: 0.1}, "Outputs"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0}, "LearningRate"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, Momentum: 1}, "Momentum"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, Momentum: -0.5}, "Momentum"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, HiddenAct: ReLU + 1}, "HiddenAct"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, OutputAct: 9}, "OutputAct"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: math.NaN()}, "LearningRate"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: math.Inf(1)}, "LearningRate"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, Momentum: math.NaN()}, "Momentum"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, InitRange: math.NaN()}, "InitRange"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, InitRange: -1}, "InitRange"},
		{Config{Inputs: 2, Hidden: []int{4}, Outputs: 1, LearningRate: 0.1, InitRange: 1e308}, "InitRange"},
	}
	for i, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("config %d accepted: %+v", i, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("config %d rejection %q does not name %q", i, err, tc.name)
		}
	}
	if err := smallConfig(2, 1).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(10, 1)
	if len(cfg.Hidden) != 1 || cfg.Hidden[0] != 16 {
		t.Fatal("paper config must have one hidden layer of 16 units")
	}
	if cfg.LearningRate != 0.001 || cfg.Momentum != 0.5 || cfg.InitRange != 0.01 {
		t.Fatal("paper hyperparameters wrong")
	}
	if cfg.HiddenAct != Sigmoid {
		t.Fatal("paper hidden activation must be sigmoid")
	}
}

func TestForwardDeterministic(t *testing.T) {
	n := New(smallConfig(3, 2))
	x := []float64{0.1, 0.5, 0.9}
	a := n.Predict(x)
	b := n.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forward pass not deterministic")
		}
	}
}

func TestInitialWeightsSmall(t *testing.T) {
	cfg := smallConfig(4, 1)
	cfg.InitRange = 0.01
	n := New(cfg)
	// With near-zero weights the network starts as (almost) a constant.
	out1 := n.Predict([]float64{0, 0, 0, 0})[0]
	out2 := n.Predict([]float64{1, 1, 1, 1})[0]
	if math.Abs(out1-out2) > 0.05 {
		t.Fatalf("freshly initialized net is already nonlinear: %v vs %v", out1, out2)
	}
}

// TestGradientCheck verifies backprop against numerical differentiation
// on every weight of a small network.
func TestGradientCheck(t *testing.T) {
	cfg := Config{
		Inputs: 3, Hidden: []int{4}, Outputs: 2,
		HiddenAct: Sigmoid, OutputAct: Linear,
		LearningRate: 1e-6, // tiny so Train barely moves the weights
		Momentum:     0, InitRange: 0.5, Seed: 13,
	}
	n := New(cfg)
	x := []float64{0.3, -0.2, 0.8}
	target := []float64{0.25, -0.5}

	loss := func() float64 {
		out := n.Forward(x)
		var se float64
		for j := range out {
			e := out[j] - target[j]
			se += e * e
		}
		return se / 2
	}

	const eps = 1e-6
	var snap []float64
	for li, l := range n.layers {
		for wi := range l.w {
			orig := l.w[wi]
			l.w[wi] = orig + eps
			up := loss()
			l.w[wi] = orig - eps
			down := loss()
			l.w[wi] = orig
			numeric := (up - down) / (2 * eps)

			// Analytic gradient: run Train with tiny lr and recover
			// dw = -lr*grad from the applied update.
			snap = n.SnapshotInto(snap)
			n.Train(x, target, 1e-6)
			analytic := -(l.w[wi] - snap[l.off+wi]) / 1e-6
			n.RestoreFlat(snap)

			if math.Abs(numeric-analytic) > 1e-3*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: numeric %.6f vs backprop %.6f",
					li, wi, numeric, analytic)
			}
		}
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	n := New(smallConfig(2, 1))
	rng := stats.NewRNG(5)
	for epoch := 0; epoch < 3000; epoch++ {
		a, b := rng.Float64(), rng.Float64()
		n.Train([]float64{a, b}, []float64{0.3*a + 0.5*b}, 0.1)
	}
	var worst float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64(), rng.Float64()
		got := n.Forward([]float64{a, b})[0]
		want := 0.3*a + 0.5*b
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Fatalf("linear fit worst error %v", worst)
	}
}

func TestLearnsXOR(t *testing.T) {
	cfg := Config{
		Inputs: 2, Hidden: []int{8}, Outputs: 1,
		HiddenAct: Sigmoid, OutputAct: Sigmoid,
		LearningRate: 0.5, Momentum: 0.9, InitRange: 0.5, Seed: 3,
	}
	n := New(cfg)
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	rng := stats.NewRNG(9)
	for epoch := 0; epoch < 20000; epoch++ {
		d := data[rng.Intn(4)]
		n.Train([]float64{d[0], d[1]}, []float64{d[2]}, 0.5)
	}
	for _, d := range data {
		got := n.Forward([]float64{d[0], d[1]})[0]
		if math.Abs(got-d[2]) > 0.25 {
			t.Fatalf("XOR(%v,%v) = %v, want %v", d[0], d[1], got, d[2])
		}
	}
}

func TestMomentumAcceleratesConvergence(t *testing.T) {
	// Train identical nets on the same stream, with and without
	// momentum; momentum should reach lower error on this smooth task.
	train := func(mom float64) float64 {
		cfg := smallConfig(1, 1)
		cfg.Momentum = mom
		cfg.Seed = 21
		n := New(cfg)
		rng := stats.NewRNG(22)
		for i := 0; i < 1500; i++ {
			x := rng.Float64()
			n.Train([]float64{x}, []float64{0.8 * x}, 0.05)
		}
		var se float64
		for i := 0; i < 100; i++ {
			x := float64(i) / 100
			e := n.Forward([]float64{x})[0] - 0.8*x
			se += e * e
		}
		return se
	}
	with := train(0.9)
	without := train(0)
	if with > without*1.5 {
		t.Fatalf("momentum hurt badly: %v vs %v", with, without)
	}
}

// TestSnapshotRestore: training after a snapshot changes the network,
// and restoring the snapshot brings back its exact predictions.
func TestSnapshotRestore(t *testing.T) {
	n := New(smallConfig(2, 1))
	x := []float64{0.2, 0.7}
	before := n.Predict(x)[0]
	snap := n.SnapshotInto(nil)
	for i := 0; i < 100; i++ {
		n.Train(x, []float64{1}, 0.5)
	}
	if n.Predict(x)[0] == before {
		t.Fatal("training had no effect")
	}
	n.RestoreFlat(snap)
	if got := n.Predict(x)[0]; got != before {
		t.Fatalf("restore did not recover weights: %v vs %v", got, before)
	}
}

func TestCloneIndependent(t *testing.T) {
	n := New(smallConfig(2, 1))
	c := n.Clone()
	x := []float64{0.4, 0.6}
	if n.Predict(x)[0] != c.Predict(x)[0] {
		t.Fatal("clone predicts differently")
	}
	for i := 0; i < 50; i++ {
		c.Train(x, []float64{1}, 0.5)
	}
	if n.Predict(x)[0] == c.Predict(x)[0] {
		t.Fatal("training the clone affected the original")
	}
}

func TestNumWeights(t *testing.T) {
	n := New(Config{Inputs: 3, Hidden: []int{4, 5}, Outputs: 2,
		LearningRate: 0.1, InitRange: 0.1})
	// (3+1)*4 + (4+1)*5 + (5+1)*2 = 16 + 25 + 12 = 53
	if got := n.NumWeights(); got != 53 {
		t.Fatalf("NumWeights = %d, want 53", got)
	}
}

func TestActivationDerivatives(t *testing.T) {
	check := func(raw float64) bool {
		x := math.Mod(raw, 4)
		if math.IsNaN(x) {
			return true
		}
		const eps = 1e-6
		for _, a := range []Activation{Sigmoid, Tanh, Linear, ReLU} {
			if a == ReLU && math.Abs(x) < 1e-3 {
				continue // kink
			}
			y := a.apply(x)
			numeric := (a.apply(x+eps) - a.apply(x-eps)) / (2 * eps)
			analytic := a.derivFromOutput(y)
			if math.Abs(numeric-analytic) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForwardPanicsOnWrongInputLen(t *testing.T) {
	n := New(smallConfig(3, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input length did not panic")
		}
	}()
	n.Forward([]float64{1, 2})
}

func TestTrainPanicsOnWrongTargetLen(t *testing.T) {
	n := New(smallConfig(2, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong target length did not panic")
		}
	}()
	n.Train([]float64{1, 2}, []float64{1, 2}, 0.1)
}

func TestMultiOutput(t *testing.T) {
	n := New(smallConfig(2, 3))
	out := n.Predict([]float64{0.5, 0.5})
	if len(out) != 3 {
		t.Fatalf("multi-output net returned %d values", len(out))
	}
	rng := stats.NewRNG(33)
	for i := 0; i < 4000; i++ {
		a, b := rng.Float64(), rng.Float64()
		n.Train([]float64{a, b}, []float64{a, b, (a + b) / 2}, 0.1)
	}
	a, b := 0.3, 0.9
	got := n.Forward([]float64{a, b})
	for i, want := range []float64{a, b, (a + b) / 2} {
		if math.Abs(got[i]-want) > 0.08 {
			t.Fatalf("output %d = %v, want ≈%v", i, got[i], want)
		}
	}
}
