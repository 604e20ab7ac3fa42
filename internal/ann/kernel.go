package ann

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// KernelMode selects the batched forward-pass kernel tier.
//
// KernelExact is the bit-identical reference path: float64
// multiply-then-add accumulation and the activations' scalar
// definitions (the sigmoid is 1/(1+math.Exp(-y))), the same operations
// in the same order as the per-point Forward. On amd64, 16-unit layers
// (with AVX2) and the sigmoid (with AVX2 and FMA) run in vector kernels
// that repeat those operations lane for lane, math.Exp's own FMA
// sequence included, so they produce the scalar loops' bits; the
// argument is set out in docs/ARCHITECTURE.md, "Kernel tiers".
// Training, checkpoints, and every pre-existing parity gate run
// exclusively on this tier.
//
// KernelFast32 runs the inner loops in float32 over a float32 copy of
// the flat weight layout, halving the data the MAC loops move and
// unlocking the AVX2 layer/activation kernels on amd64, and swaps the
// transcendentals for the bounded-error batch activations of
// internal/mathx (plus, downstream, the fused denormalization in
// internal/core). It is a query-time opt-in: outputs are a pure
// function of the input bits — identical across batch sizes, workers,
// chunking, and architectures (every step is explicitly
// single-rounded, so no platform may contract a multiply-add, and the
// amd64 vector kernels reproduce the portable Go op sequence bit for
// bit) — but they are NOT bit-identical to the exact tier; they are
// within FastErrorBound of it.
type KernelMode uint8

const (
	KernelExact KernelMode = iota
	KernelFast32
)

// String names the kernel mode; it round-trips with ParseKernelMode.
func (m KernelMode) String() string {
	switch m {
	case KernelExact:
		return "exact"
	case KernelFast32:
		return "fast32"
	}
	return fmt.Sprintf("kernel(%d)", uint8(m))
}

// ParseKernelMode parses a mode name. The empty string parses as
// KernelExact so absent config/request fields keep the bit-identical
// default.
func ParseKernelMode(s string) (KernelMode, error) {
	switch s {
	case "", "exact":
		return KernelExact, nil
	case "fast32":
		return KernelFast32, nil
	}
	return KernelExact, fmt.Errorf("ann: unknown kernel mode %q (want exact or fast32)", s)
}

// MarshalText encodes the mode as its name.
func (m KernelMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes a mode name; empty input is KernelExact.
func (m *KernelMode) UnmarshalText(text []byte) error {
	parsed, err := ParseKernelMode(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// FastErrorBound derives an absolute per-output error bound for the
// fast32 kernel tier relative to KernelExact, from the documented
// internal/mathx activation contract and a standard float32 rounding
// model. The bound assumes every network input lies in [-1, 1], which
// holds for encoded design points (they live in [0, 1]).
//
// The derivation propagates an interval layer by layer: a magnitude
// bound on the layer's activations and an absolute error bound versus
// the exact tier. Each layer amplifies the incoming error by its
// max-unit L1 weight norm, adds the tier's own rounding (one float32
// rounding per product and accumulation step, plus the rounding of
// weights and inputs themselves), and passes the sum through the
// activation's Lipschitz constant plus the mathx approximation
// contract. The returned value carries a ×2 safety margin on the
// rounding model; tests assert measured error stays under it, and
// callers may use it to propagate bounds through downstream
// denormalization.
func (n *Network) FastErrorBound() float64 {
	const (
		actErr32 = 2e-6   // mathx Sigmoid32/Tanh32 contract
		eps32    = 6.0e-8 // float32 unit roundoff, with slack
	)
	// mag bounds |activation| entering the next layer; d bounds
	// |fast32 − exact| on the current layer's outputs.
	mag, d := 1.0, 0.0
	for _, l := range n.layers {
		stride := l.in + 1
		l1, pre := 0.0, 0.0 // max over units: Σ|w|, and Σ|w|·mag+|b|
		for j := 0; j < l.out; j++ {
			row := l.w[j*stride : (j+1)*stride]
			sum := 0.0
			for _, w := range row[:l.in] {
				sum += math.Abs(w)
			}
			l1 = math.Max(l1, sum)
			pre = math.Max(pre, sum*mag+math.Abs(row[l.in]))
		}
		// Pre-activation error: incoming error through the L1 norm,
		// plus the float32 rounding of the weights, the inputs, and
		// every product/add in the accumulation chain.
		preErr := l1*d + float64(2*l.in+4)*eps32*pre
		lip, aerr, outMag := 1.0, 0.0, pre
		switch l.act {
		case Sigmoid:
			lip, aerr, outMag = 0.25, actErr32, 1
		case Tanh:
			lip, aerr, outMag = 1, actErr32, 1
		}
		d = lip*preErr + aerr
		mag = outMag
	}
	return 2 * (d + eps32*mag)
}

// ForwardBatchKernel is ForwardBatch with an explicit kernel tier. The
// mode is a per-call argument rather than network state so concurrent
// callers (e.g. a server answering exact and fast32 sweeps at once) can
// share one network with private Scratches.
func (n *Network) ForwardBatchKernel(xs []float64, rows int, s *Scratch, mode KernelMode) []float64 {
	if rows < 0 || len(xs) != rows*n.cfg.Inputs {
		panic(fmt.Sprintf("ann: batch of %d values is not %d rows × %d inputs", len(xs), rows, n.cfg.Inputs))
	}
	if s == nil {
		s = NewScratch()
	}
	if mode == KernelFast32 {
		return n.forwardBatch32(xs, rows, s)
	}
	return n.forwardBatchExact(xs, rows, s)
}

// applyBatchFast32 applies the bounded-error float32 activation tier
// in place.
func (a Activation) applyBatchFast32(ys []float32) {
	switch a {
	case Sigmoid:
		mathx.SigmoidSlice32(ys)
	case Tanh:
		mathx.TanhSlice32(ys)
	case ReLU:
		for i, y := range ys {
			if y < 0 {
				ys[i] = 0
			}
		}
	}
}

// ensure32 sizes the float32 scratch tier and the final float64
// output buffer for one fast32 forward pass.
func (s *Scratch) ensure32(n *Network, rows int) {
	s.w32 = grow32(s.w32, len(n.w))
	s.in32 = grow32(s.in32, rows*n.cfg.Inputs)
	if len(s.acts32) < len(n.layers) {
		s.acts32 = make([][]float32, len(n.layers))
	}
	for li, l := range n.layers {
		s.acts32[li] = grow32(s.acts32[li], rows*l.out)
	}
	if len(s.acts) < len(n.layers) {
		s.acts = make([][]float64, len(n.layers))
	}
	last := len(n.layers) - 1
	s.acts[last] = grow(s.acts[last], rows*n.layers[last].out)
}

func grow32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// forwardBatch32 is the KernelFast32 path: weights and inputs are
// rounded once per call into scratch-owned float32 buffers (a few
// hundred conversions, amortized over the batch), the blocked MAC
// loops and activations run entirely in float32, and only the final
// layer widens back to float64 so every downstream consumer (scalers,
// variance accumulation, heaps) is unchanged. Rows stay independent —
// identical results for any split of a batch.
func (n *Network) forwardBatch32(xs []float64, rows int, s *Scratch) []float64 {
	s.ensure32(n, rows)
	for i, w := range n.w {
		s.w32[i] = float32(w)
	}
	for i, x := range xs {
		s.in32[i] = float32(x)
	}
	in := s.in32
	for li, l := range n.layers {
		out := s.acts32[li]
		if kernelAsm16(l, rows) {
			// AVX2 path: same multiply-add sequence as the Go loops below,
			// vectorized across the 16 units (two YMM accumulators), fed by
			// an input-major repack of the layer's float32 weights.
			s.wT32 = transpose(l, s.w32, s.wT32)
			hidden16AVX2(&s.wT32[0], &in[0], rows, l.in, &out[0])
			l.act.applyBatchFast32(out[:rows*l.out])
		} else {
			l.forwardBatch32(s.w32, in, rows, out)
		}
		in = out
	}
	last := len(n.layers) - 1
	out := s.acts[last]
	for i, v := range s.acts32[last][:rows*n.layers[last].out] {
		out[i] = float64(v)
	}
	return out
}

// transpose repacks one layer's weights, taken from the flat layout
// all (float64 or its float32 copy), from unit-major (each unit's
// inputs contiguous) to input-major (wt[i*out+j] = weight of input i
// into unit j) with the bias vector as the final row — the layout the
// vector kernels broadcast inputs against. The values are copied bits,
// so both layouts feed identical products. Reuses buf's capacity.
func transpose[T float32 | float64](l *layer, all, buf []T) []T {
	w := all[l.off : l.off+l.out*(l.in+1)]
	stride := l.in + 1
	n := stride * l.out
	if cap(buf) < n {
		buf = make([]T, n)
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

// forwardBatch32 computes one layer in float32 with the four-row
// blocking of sumBatch. Every product is explicitly rounded to
// float32 before accumulating, pinning one rounding per operation so
// no platform may contract the multiply-add and change the bits.
func (l *layer) forwardBatch32(w32 []float32, in []float32, rows int, out []float32) {
	w := w32[l.off : l.off+l.out*(l.in+1)]
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
			row := w[j*stride : j*stride+inW]
			b := w[j*stride+inW]
			s0, s1, s2, s3 := b, b, b, b
			for i, wv := range row {
				s0 += float32(wv * x0[i])
				s1 += float32(wv * x1[i])
				s2 += float32(wv * x2[i])
				s3 += float32(wv * x3[i])
			}
			o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		x := in[r*inW : r*inW+inW]
		o := out[r*outW : r*outW+outW]
		for j := 0; j < outW; j++ {
			row := w[j*stride : j*stride+inW]
			sum := w[j*stride+inW]
			for i, wv := range row {
				sum += float32(wv * x[i])
			}
			o[j] = sum
		}
	}
	l.act.applyBatchFast32(out[:rows*outW])
}
