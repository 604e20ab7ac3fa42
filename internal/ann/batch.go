package ann

import "fmt"

// Scratch holds the reusable buffers the batched forward pass writes
// into: per-layer activation matrices and the vector kernel's weight
// repack. A Scratch grows to the largest (network, batch) shape it has
// seen and is then allocation-free across calls.
//
// A Scratch is not safe for concurrent use; give each worker goroutine
// its own (ForwardBatch never writes to shared network state through
// it, so many goroutines may score the same network concurrently with
// separate Scratches).
type Scratch struct {
	acts [][]float64  // per layer: rows × layer.out activations
	wT   []float64    // input-major weight repack for the vector kernel
	lvl  [2][]float64 // ForwardRange's prefix sums, alternate levels
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
func (s *Scratch) ensure(n *Network, rows int) {
	if len(s.acts) < len(n.layers) {
		s.acts = make([][]float64, len(n.layers))
	}
	for li, l := range n.layers {
		s.acts[li] = grow(s.acts[li], rows*l.out)
	}
}

// ForwardBatch runs rows examples through the network in one pass.
// xs is a flat row-major matrix (rows × Inputs); the returned slice is
// the flat rows × Outputs activation matrix, owned by s and overwritten
// by its next use. Passing a nil scratch allocates a private one.
//
// Outputs are bit-identical to calling Forward on each row: float64
// multiply-then-add accumulation and the activations' scalar
// definitions (the sigmoid is 1/(1+math.Exp(-y))), the same operations
// in the same order as the per-point pass. The batched kernel only
// reorders independent examples, so any split of a batch yields the
// same bits. On amd64, 16-unit layers and 1-unit layers over 16 inputs
// (with AVX2) and the sigmoid (with AVX2 and FMA) run in vector kernels
// that repeat those operations lane for lane, math.Exp's own FMA
// sequence included; the argument is set out in docs/ARCHITECTURE.md,
// "The forward kernel".
func (n *Network) ForwardBatch(xs []float64, rows int, s *Scratch) []float64 {
	if rows < 0 || len(xs) != rows*n.cfg.Inputs {
		panic(fmt.Sprintf("ann: batch of %d values is not %d rows × %d inputs", len(xs), rows, n.cfg.Inputs))
	}
	if s == nil {
		s = NewScratch()
	}
	s.ensure(n, rows)
	return n.forwardFrom(0, xs, rows, s)
}

// forwardFrom runs layers first.. of the network over in, the rows ×
// layers[first].in matrix of that layer's inputs, and returns the
// output activations (see ForwardBatch). s must be sized for rows.
func (n *Network) forwardFrom(first int, in []float64, rows int, s *Scratch) []float64 {
	for li := first; li < len(n.layers); li++ {
		l := n.layers[li]
		out := s.acts[li]
		switch {
		case kernelAsm16(l, rows):
			// AVX2 path: the multiply-then-add sequence of sumBatch,
			// vectorized across the 16 units, fed by an input-major
			// repack of the layer's weights.
			s.wT = transpose(l, n.w, s.wT)
			hidden16AVX2f64(&s.wT[0], &in[0], rows, l.in, &out[0])
		case outputAsm16(l, rows):
			// AVX2 path for a 1-unit layer over 16 inputs: the same
			// sequence with one row per lane; sumBatch takes the 1–3-row
			// tail.
			v := rows / 4 * 4
			output16AVX2(&l.w[0], &in[0], v/4, &out[0])
			l.sumBatch(in[v*16:], rows-v, out[v:])
		default:
			l.sumBatch(in, rows, out)
		}
		l.act.applyBatch(out[:rows*l.out])
		in = out
	}
	return s.acts[len(n.layers)-1]
}

// transpose repacks one layer's weights, taken from the flat layout
// all, from unit-major (each unit's inputs contiguous) to input-major
// (wt[i*out+j] = weight of input i into unit j) with the bias vector as
// the final row — the layout the vector kernel broadcasts inputs
// against. The values are copied bits, so both layouts feed identical
// products. Reuses buf's capacity.
func transpose(l *layer, all, buf []float64) []float64 {
	w := all[l.off : l.off+l.out*(l.in+1)]
	stride := l.in + 1
	n := stride * l.out
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for j := 0; j < l.out; j++ {
		row := w[j*stride : (j+1)*stride]
		for i, wv := range row {
			buf[i*l.out+j] = wv
		}
	}
	return buf
}

// untranspose is transpose's inverse: it copies wt, in transpose's
// layout, back into layer l's unit-major rows of all, bit for bit.
func untranspose(l *layer, wt, all []float64) {
	w := all[l.off : l.off+l.out*(l.in+1)]
	stride := l.in + 1
	for j := 0; j < l.out; j++ {
		row := w[j*stride : (j+1)*stride]
		for i := range row {
			row[i] = wt[i*l.out+j]
		}
	}
}

// sumBatch computes this layer's pre-activation sums for rows
// examples. The kernel processes four examples per weight-row pass, so
// each weight load feeds four independent accumulators — the register
// blocking that makes batched scoring several times faster than
// per-point calls.
func (l *layer) sumBatch(in []float64, rows int, out []float64) {
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
}
