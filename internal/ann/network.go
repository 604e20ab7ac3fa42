// Package ann implements the fully connected feed-forward artificial
// neural networks at the heart of the paper's predictive models
// (Chapter 3): sigmoid hidden units, gradient-descent training via
// backpropagation with momentum (Equations 3.1/3.2), small uniform
// weight initialization, presentation-frequency weighting (so the nets
// optimize percentage rather than absolute error, §3.3), and early
// stopping on a held-aside set.
//
// All weights of a network live in one contiguous []float64 (layer
// after layer, row-major within a layer). Training presents one
// example at a time (Train, the paper's per-example backpropagation),
// while the batched forward pass in batch.go — ForwardBatch and the
// Scratch buffers it reuses — runs many examples through that flat
// layout at once. This is the compute core the rest of the repository
// leans on: the ensemble's candidate-pool scoring and full-space sweeps
// go through ForwardBatch rather than per-point calls.
//
// On amd64 the forward pass has three AVX2 kernels, chosen at run time
// by internal/cpufeat and bit-identical to the portable loops, which
// stay as the reference: a 16-unit layer MAC and a 1-unit output layer
// over 16 inputs, four rows at a time (cpufeat.AVX2), and a 4-lane
// sigmoid (cpufeat.AVX2 and cpufeat.FMA) that Forward, Train and
// ForwardBatch all reach through the activation step, preceded by an
// 8-lane one with the same ops on CPUs with cpufeat.AVX512. See
// ForwardBatch. The sigmoid's exp core also runs alone as ExpBatch,
// math.Exp over a slice, which the ensemble uses to undo log-space
// targets. A RangeNet scores the rows of a mixed-radix input space (a
// design space's encoding) by flat index: ForwardRange computes layer
// 0's sums from per-axis product tables and shared prefix sums with a
// gather-add kernel, fuses the last axis's adds with a two-chain 8-lane
// sigmoid on AVX-512 CPUs, and runs the later layers through
// ForwardBatch's loop, with ForwardBatch's bits. AffineBatch and
// Moments are the ensemble's unscale and mean/variance reduction as
// vector kernels. TrainEarlyStopping trains a network with one 16-unit
// hidden layer on an AVX2 CPU with a vector step (step16): that layer's
// forward pass through the layer kernel, its momentum update four
// units per register, and the same bits as Train, which stays as the
// portable step and the reference.
//
// The package is self-contained and generic over input/output
// dimensions; the design-space-specific encoding and the
// cross-validation ensembling live in internal/encoding and
// internal/core respectively.
package ann

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Activation selects a unit nonlinearity.
type Activation uint8

// Supported activations. The paper's hidden units are sigmoid
// (Figure 3.2); the output unit is linear by default here so the
// regression range is unbounded after denormalization, with Sigmoid
// available for a paper-exact configuration.
const (
	Sigmoid Activation = iota
	Tanh
	Linear
	ReLU
)

// known reports whether a is one of the four supported activations;
// applyBatch and derivFromOutput would treat any other value as
// linear, so Config.Validate rejects it.
func (a Activation) known() bool { return a <= ReLU }

// String names the activation.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	}
	return fmt.Sprintf("activation(%d)", uint8(a))
}

// applyBatch applies the activation to ys in place, with the switch
// hoisted out of the element loop; both the per-example and the
// batched forward passes go through it.
func (a Activation) applyBatch(ys []float64) {
	switch a {
	case Sigmoid:
		sigmoidExact(ys)
	case Tanh:
		for i, y := range ys {
			ys[i] = math.Tanh(y)
		}
	case ReLU:
		for i, y := range ys {
			if y < 0 {
				ys[i] = 0
			}
		}
	}
}

// sigmoidExact sets ys[i] = 1/(1+math.Exp(-ys[i])) (see exactBatch).
func sigmoidExact(ys []float64) { exactBatch(ys, false) }

// ExpBatch sets ys[i] = math.Exp(ys[i]), bit for bit, four or eight
// elements per step where the vector kernels run (see exactBatch).
func ExpBatch(ys []float64) { exactBatch(ys, true) }

// exactBatch is the scalar hand-off the sigmoid and exp kernels share:
// it applies the sigmoid, or math.Exp where exp is set, to ys in place.
// Where sigmoidAsm holds, the kernel does four elements per step and
// stops at any group that math.Exp would not finish with a single 2^k
// multiply (NaN, ±Inf, overflow, subnormal results); that group goes
// to the scalar loop whole, and so does the 1–3-element tail. Where
// exp512 holds, the 8-lane kernel does eight elements per step; a
// group it stops at goes through the 4-lane kernel as two halves, each
// handed to the scalar loop whole where that stops too, and the 8-lane
// kernel resumes after it. The 4-lane loop takes a tail of 4–7.
func exactBatch(ys []float64, exp bool) {
	if sigmoidAsm {
		for exp512 && len(ys) >= 8 {
			if exp {
				ys = ys[expAVX512(&ys[0], len(ys)/8):]
			} else {
				ys = ys[sigmoidAVX512(&ys[0], len(ys)/8):]
			}
			if len(ys) < 8 {
				break
			}
			exact4(ys[:4], exp)
			exact4(ys[4:8], exp)
			ys = ys[8:]
		}
		for len(ys) >= 4 {
			ys = ys[vector4(ys, exp):]
			if len(ys) < 4 {
				break
			}
			exactScalar(ys[:4], exp)
			ys = ys[4:]
		}
	}
	exactScalar(ys, exp)
}

// vector4 runs the 4-lane kernel over ys's whole 4-element groups and
// returns the number of elements it did.
func vector4(ys []float64, exp bool) int {
	if exp {
		return expAVX2(&ys[0], len(ys)/4)
	}
	return sigmoidAVX2(&ys[0], len(ys)/4)
}

// exact4 applies the 4-lane kernel to the group g, or the scalar loop
// where the kernel stops.
func exact4(g []float64, exp bool) {
	if vector4(g, exp) == 0 {
		exactScalar(g, exp)
	}
}

func exactScalar(ys []float64, exp bool) {
	if exp {
		expScalar(ys)
	} else {
		sigmoidScalar(ys)
	}
}

func sigmoidScalar(ys []float64) {
	for i, y := range ys {
		ys[i] = 1 / (1 + math.Exp(-y))
	}
}

func expScalar(ys []float64) {
	for i, y := range ys {
		ys[i] = math.Exp(y)
	}
}

// derivFromOutput returns dy/dx expressed in terms of the activation
// output y (all supported activations admit this form, which avoids
// recomputing the transcendental).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Config describes a network architecture and its training
// hyperparameters.
type Config struct {
	Inputs  int
	Hidden  []int // hidden-layer sizes, e.g. {16}
	Outputs int

	HiddenAct Activation
	OutputAct Activation

	LearningRate float64 // η in Equation 3.1; positive and finite
	Momentum     float64 // α in Equation 3.2; in [0,1)
	// InitRange r starts every weight uniform on [-r, +r]; r must lie in
	// [0, 10] (maxInitRange).
	InitRange float64
	Seed      uint64
}

// maxInitRange caps Config.InitRange. The paper starts weights on
// [-0.01, +0.01] and the tests here use at most 4; at 10 a hidden
// unit's sum over a handful of [0,1] inputs already saturates the
// sigmoid, and a range near the float64 limit draws infinite weights.
const maxInitRange = 10

// PaperConfig returns the exact hyperparameters of §3.1: one hidden
// layer of 16 sigmoid units, learning rate 0.001, momentum 0.5, and
// initial weights uniform on [-0.01, +0.01].
func PaperConfig(inputs, outputs int) Config {
	return Config{
		Inputs:       inputs,
		Hidden:       []int{16},
		Outputs:      outputs,
		HiddenAct:    Sigmoid,
		OutputAct:    Linear,
		LearningRate: 0.001,
		Momentum:     0.5,
		InitRange:    0.01,
	}
}

// Validate reports structural problems with the configuration. Each
// error names the offending field.
func (c Config) Validate() error {
	if c.Inputs <= 0 || c.Outputs <= 0 {
		return fmt.Errorf("ann: Config.Inputs and Config.Outputs must both be positive, got %d/%d", c.Inputs, c.Outputs)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("ann: Config.Hidden[%d] is %d, but a hidden layer needs at least one unit", i, h)
		}
	}
	if !c.HiddenAct.known() {
		return fmt.Errorf("ann: Config.HiddenAct %d is not sigmoid (0), tanh (1), linear (2) or relu (3)", c.HiddenAct)
	}
	if !c.OutputAct.known() {
		return fmt.Errorf("ann: Config.OutputAct %d is not sigmoid (0), tanh (1), linear (2) or relu (3)", c.OutputAct)
	}
	// Each bound is written so that NaN fails it.
	if !(c.LearningRate > 0 && c.LearningRate <= math.MaxFloat64) {
		return fmt.Errorf("ann: Config.LearningRate must be positive and finite, got %g", c.LearningRate)
	}
	if !(c.Momentum >= 0 && c.Momentum < 1) {
		return fmt.Errorf("ann: Config.Momentum must be in [0,1), got %g", c.Momentum)
	}
	if !(c.InitRange >= 0 && c.InitRange <= maxInitRange) {
		return fmt.Errorf("ann: Config.InitRange must be in [0,%g], got %g", float64(maxInitRange), c.InitRange)
	}
	return nil
}

// layer describes one fully connected layer. Its weight and momentum
// slices are views into the network's single contiguous buffers, stored
// row-major: w[j*(in+1)+i] is the weight from input i to unit j, with
// the bias at index in (a constant-1 input, as in Figure 3.2).
type layer struct {
	in, out int
	off     int       // offset of this layer's weights in the flat buffer
	w       []float64 // view into Network.w
	dwPrev  []float64 // view into Network.dwPrev (momentum term)
	act     Activation

	// Per-example forward/backward scratch (the batched forward path
	// uses a caller-provided Scratch instead, so it can run
	// concurrently).
	output []float64
	delta  []float64
}

// Network is a feed-forward fully connected neural network. All
// trainable weights live in one flat buffer so snapshots, clones and
// the batched kernels touch a single contiguous allocation.
type Network struct {
	cfg    Config
	w      []float64 // every layer's weights, back to back
	dwPrev []float64 // previous updates, aligned with w
	layers []*layer
}

// New constructs a network with freshly initialized weights. It panics
// on an invalid configuration (architectures are static study
// descriptions; failing fast is the useful behaviour).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xA11CE5)
	n := &Network{cfg: cfg}

	dims := make([][2]int, 0, len(cfg.Hidden)+1)
	prev := cfg.Inputs
	for _, h := range cfg.Hidden {
		dims = append(dims, [2]int{prev, h})
		prev = h
	}
	dims = append(dims, [2]int{prev, cfg.Outputs})

	total := 0
	for _, d := range dims {
		total += d[1] * (d[0] + 1)
	}
	n.w = make([]float64, total)
	n.dwPrev = make([]float64, total)

	off := 0
	for i, d := range dims {
		in, out := d[0], d[1]
		size := out * (in + 1)
		act := cfg.HiddenAct
		if i == len(dims)-1 {
			act = cfg.OutputAct
		}
		l := &layer{
			in:     in,
			out:    out,
			off:    off,
			w:      n.w[off : off+size : off+size],
			dwPrev: n.dwPrev[off : off+size : off+size],
			act:    act,
			output: make([]float64, out),
			delta:  make([]float64, out),
		}
		for j := range l.w {
			l.w[j] = rng.Range(-cfg.InitRange, cfg.InitRange)
		}
		n.layers = append(n.layers, l)
		off += size
	}
	return n
}

// Config returns the configuration the network was built from.
func (n *Network) Config() Config { return n.cfg }

func (l *layer) forward(x []float64) []float64 {
	stride := l.in + 1
	for j := range l.output {
		row := l.w[j*stride : j*stride+stride]
		sum := row[l.in] // bias
		w := row[:len(x)]
		for i, xi := range x {
			sum += w[i] * xi
		}
		l.output[j] = sum
	}
	l.act.applyBatch(l.output)
	return l.output
}

// Forward runs one example through the network and returns the output
// activations. The returned slice is scratch owned by the network and
// is overwritten by the next call; copy it if it must survive. Because
// it writes the network-owned per-example buffers it is NOT safe for
// concurrent use on a shared network — concurrent callers must go
// through ForwardBatch with private Scratches, which is also
// substantially faster for scoring many points.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.cfg.Inputs {
		panic(fmt.Sprintf("ann: got %d inputs, network has %d", len(x), n.cfg.Inputs))
	}
	h := x
	for _, l := range n.layers {
		h = l.forward(h)
	}
	return h
}

// Predict returns a freshly allocated copy of the network output for x.
func (n *Network) Predict(x []float64) []float64 {
	out := n.Forward(x)
	cp := make([]float64, len(out))
	copy(cp, out)
	return cp
}

// Train performs one stochastic gradient-descent step on a single
// example with the given learning rate, backpropagating the squared
// error between the network output and target (Equations 3.1 and 3.2).
// It returns the example's squared error before the update. It is the
// portable training step and the reference TrainEarlyStopping's vector
// step (step16) must match bit for bit.
func (n *Network) Train(x, target []float64, lr float64) float64 {
	if len(target) != n.cfg.Outputs {
		panic(fmt.Sprintf("ann: got %d targets, network has %d outputs", len(target), n.cfg.Outputs))
	}
	se := n.outputDeltas(n.Forward(x), target)
	for li := len(n.layers) - 2; li >= 0; li-- {
		n.layers[li].backprop(n.layers[li+1])
	}
	// Every delta is computed before any weight moves.
	input := x
	for _, l := range n.layers {
		l.update(input, lr, n.cfg.Momentum)
		input = l.output
	}
	return se / 2
}

// outputDeltas sets the output layer's deltas, δ = (o - t) · f'(o),
// and returns the example's summed squared error.
func (n *Network) outputDeltas(out, target []float64) float64 {
	last := n.layers[len(n.layers)-1]
	var se float64
	for j := 0; j < last.out; j++ {
		e := out[j] - target[j]
		se += e * e
		last.delta[j] = e * last.act.derivFromOutput(out[j])
	}
	return se
}

// backprop sets a hidden layer's deltas from the next layer's:
// δ_j = (Σ_k w[k][j]·δ_k, summed from zero in ascending k) · f'(y_j).
func (l *layer) backprop(next *layer) {
	stride := next.in + 1
	for j := 0; j < l.out; j++ {
		var sum float64
		for k := 0; k < next.out; k++ {
			sum += next.w[k*stride+j] * next.delta[k]
		}
		l.delta[j] = sum * l.act.derivFromOutput(l.output[j])
	}
}

// update applies the layer's weight updates with momentum for the
// given input: Δw = -η ∂E/∂w + α Δw_prev. g is -lr*d hoisted out of
// the row: Go evaluates -lr*d*x as (-lr*d)*x, so every update keeps
// its bits. The rows are cut to the input length so the inner loop
// runs without bounds checks.
func (l *layer) update(input []float64, lr, mom float64) {
	stride := l.in + 1
	for j, d := range l.delta {
		g := -lr * d
		w := l.w[j*stride : j*stride+stride]
		prev := l.dwPrev[j*stride : j*stride+stride]
		wIn, prevIn := w[:len(input)], prev[:len(input)]
		for i, xi := range input {
			dw := g*xi + mom*prevIn[i]
			wIn[i] += dw
			prevIn[i] = dw
		}
		dw := g + mom*prev[l.in] // bias input is 1
		w[l.in] += dw
		prev[l.in] = dw
	}
}

// SnapshotInto copies all weights into dst, reusing its capacity when
// possible, and returns it; early stopping uses it to remember the best
// model seen, keeping one buffer alive across hundreds of improvements.
func (n *Network) SnapshotInto(dst []float64) []float64 {
	if cap(dst) < len(n.w) {
		dst = make([]float64, len(n.w))
	}
	dst = dst[:len(n.w)]
	copy(dst, n.w)
	return dst
}

// RestoreFlat loads weights previously captured by SnapshotInto and
// clears the momentum state (a restored model should not continue a
// stale update direction).
func (n *Network) RestoreFlat(src []float64) {
	if len(src) != len(n.w) {
		panic("ann: flat snapshot size mismatch")
	}
	copy(n.w, src)
	for j := range n.dwPrev {
		n.dwPrev[j] = 0
	}
}
