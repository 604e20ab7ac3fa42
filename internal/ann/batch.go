package ann

import "fmt"

// Scratch holds the reusable buffers the batched forward/backward
// kernels write into: per-layer activation matrices, per-layer delta
// matrices, and a flat gradient accumulator. A Scratch grows to the
// largest (network, batch) shape it has seen and is then allocation-free
// across calls.
//
// A Scratch is not safe for concurrent use; give each worker goroutine
// its own (ForwardBatch and TrainBatch never write to shared network
// state through it, so many goroutines may score the same network
// concurrently with separate Scratches).
type Scratch struct {
	acts   [][]float64 // per layer: rows × layer.out activations
	deltas [][]float64 // per layer: rows × layer.out backprop deltas
	grad   []float64   // flat gradient accumulator, aligned with Network.w

	// Float32 tier (KernelFast32): per-call rounded copies of the flat
	// weight layout and the input batch, plus float32 activations.
	w32    []float32
	in32   []float32
	acts32 [][]float32
	wT32   []float32 // input-major weight repack for the vector kernel
}

// NewScratch returns an empty scratch; buffers are sized lazily by the
// first batched call.
func NewScratch() *Scratch { return &Scratch{} }

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ensure sizes the scratch for one batched pass over rows examples.
func (s *Scratch) ensure(n *Network, rows int, backward bool) {
	if len(s.acts) < len(n.layers) {
		s.acts = make([][]float64, len(n.layers))
	}
	for li, l := range n.layers {
		s.acts[li] = grow(s.acts[li], rows*l.out)
	}
	if !backward {
		return
	}
	if len(s.deltas) < len(n.layers) {
		s.deltas = make([][]float64, len(n.layers))
	}
	for li, l := range n.layers {
		s.deltas[li] = grow(s.deltas[li], rows*l.out)
	}
	s.grad = grow(s.grad, len(n.w))
	for i := range s.grad {
		s.grad[i] = 0
	}
}

// ForwardBatch runs rows examples through the network in one pass.
// xs is a flat row-major matrix (rows × Inputs); the returned slice is
// the flat rows × Outputs activation matrix, owned by s and overwritten
// by its next use. Passing a nil scratch allocates a private one.
//
// Outputs are bit-identical to calling Forward on each row; the batched
// kernel only reorders independent examples, never the floating-point
// operations within one example.
func (n *Network) ForwardBatch(xs []float64, rows int, s *Scratch) []float64 {
	return n.ForwardBatchKernel(xs, rows, s, KernelExact)
}

func (n *Network) forwardBatchExact(xs []float64, rows int, s *Scratch) []float64 {
	if s == nil {
		s = NewScratch()
	}
	s.ensure(n, rows, false)
	in := xs
	for li, l := range n.layers {
		l.forwardBatch(in, rows, s.acts[li])
		in = s.acts[li]
	}
	return s.acts[len(n.layers)-1]
}

// forwardBatch computes this layer's activations for rows examples.
// The kernel processes four examples per weight-row pass, so each
// weight load feeds four independent accumulators — the register
// blocking that makes batched scoring several times faster than
// per-point calls.
func (l *layer) forwardBatch(in []float64, rows int, out []float64) {
	stride := l.in + 1
	inW := l.in
	outW := l.out
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0 := in[(r+0)*inW : (r+0)*inW+inW]
		x1 := in[(r+1)*inW : (r+1)*inW+inW]
		x2 := in[(r+2)*inW : (r+2)*inW+inW]
		x3 := in[(r+3)*inW : (r+3)*inW+inW]
		o0 := out[(r+0)*outW : (r+0)*outW+outW]
		o1 := out[(r+1)*outW : (r+1)*outW+outW]
		o2 := out[(r+2)*outW : (r+2)*outW+outW]
		o3 := out[(r+3)*outW : (r+3)*outW+outW]
		for j := 0; j < outW; j++ {
			row := l.w[j*stride : j*stride+inW]
			b := l.w[j*stride+inW]
			s0, s1, s2, s3 := b, b, b, b
			for i, w := range row {
				s0 += w * x0[i]
				s1 += w * x1[i]
				s2 += w * x2[i]
				s3 += w * x3[i]
			}
			o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		x := in[r*inW : r*inW+inW]
		o := out[r*outW : r*outW+outW]
		for j := 0; j < outW; j++ {
			row := l.w[j*stride : j*stride+inW]
			sum := l.w[j*stride+inW]
			for i, w := range row {
				sum += w * x[i]
			}
			o[j] = sum
		}
	}
	l.act.applyBatch(out[:rows*outW])
}

// TrainBatch performs one mini-batch gradient step: it forward-passes
// rows examples, backpropagates all of them, and applies a single
// momentum update with the gradient averaged over the batch
// (Equations 3.1/3.2 with the sum over the batch in ∂E/∂w). xs and
// targets are flat row-major matrices (rows × Inputs, rows × Outputs).
// It returns the mean per-example squared error (Σ(o−t)²/2, averaged
// over rows) measured before the update.
//
// With rows == 1 this is the same update as Train up to floating-point
// association; larger batches trade the paper's per-example stochastic
// updates for fewer, cheaper steps.
func (n *Network) TrainBatch(xs, targets []float64, rows int, lr float64, s *Scratch) float64 {
	if rows <= 0 {
		panic("ann: TrainBatch needs at least one row")
	}
	if len(targets) != rows*n.cfg.Outputs {
		panic(fmt.Sprintf("ann: batch of %d targets is not %d rows × %d outputs", len(targets), rows, n.cfg.Outputs))
	}
	if s == nil {
		s = NewScratch()
	}
	// Forward, keeping every layer's activations for the backward pass
	// (ensure with backward=true also zeroes the gradient accumulator).
	s.ensure(n, rows, true)
	n.forwardBatchExact(xs, rows, s)

	// Output-layer deltas: δ = (o - t) · f'(o).
	lastIdx := len(n.layers) - 1
	last := n.layers[lastIdx]
	outAct := s.acts[lastIdx]
	outDelta := s.deltas[lastIdx]
	var se float64
	for k, o := range outAct[:rows*last.out] {
		e := o - targets[k]
		se += e * e
		outDelta[k] = e * last.act.derivFromOutput(o)
	}

	// Hidden-layer deltas, back to front.
	for li := lastIdx - 1; li >= 0; li-- {
		l, next := n.layers[li], n.layers[li+1]
		stride := next.in + 1
		acts := s.acts[li]
		deltas := s.deltas[li]
		nextDeltas := s.deltas[li+1]
		for r := 0; r < rows; r++ {
			nd := nextDeltas[r*next.out : r*next.out+next.out]
			base := r * l.out
			for j := 0; j < l.out; j++ {
				var sum float64
				for k, dk := range nd {
					sum += next.w[k*stride+j] * dk
				}
				deltas[base+j] = sum * l.act.derivFromOutput(acts[base+j])
			}
		}
	}

	// Gradient accumulation: ∂E/∂w[j][i] = Σ_rows δ[j]·input[i].
	input := xs
	inW := n.cfg.Inputs
	for li, l := range n.layers {
		stride := l.in + 1
		deltas := s.deltas[li]
		for r := 0; r < rows; r++ {
			x := input[r*inW : r*inW+inW]
			for j := 0; j < l.out; j++ {
				d := deltas[r*l.out+j]
				if d == 0 {
					continue
				}
				g := s.grad[l.off+j*stride : l.off+j*stride+stride]
				for i, xi := range x {
					g[i] += d * xi
				}
				g[inW] += d // bias input is 1
			}
		}
		input = s.acts[li]
		inW = l.out
	}

	// One momentum update with the batch-averaged gradient:
	// Δw = -η/rows · Σ ∂E/∂w + α Δw_prev.
	scale := lr / float64(rows)
	mom := n.cfg.Momentum
	for i, g := range s.grad[:len(n.w)] {
		dw := -scale*g + mom*n.dwPrev[i]
		n.w[i] += dw
		n.dwPrev[i] = dw
	}
	return se / 2 / float64(rows)
}
