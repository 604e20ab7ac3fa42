package ann

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func kernelTestNet(t testing.TB, hiddenAct Activation) (*Network, []float64, int) {
	t.Helper()
	cfg := Config{
		Inputs: 13, Hidden: []int{16}, Outputs: 2,
		HiddenAct: hiddenAct, OutputAct: Linear,
		LearningRate: 0.001, Momentum: 0.5, InitRange: 0.8, Seed: 11,
	}
	n := New(cfg)
	rng := stats.NewRNG(99)
	const rows = 1024
	xs := make([]float64, rows*cfg.Inputs)
	for i := range xs {
		xs[i] = rng.Float64() // encoded design points live in [0,1)
	}
	return n, xs, rows
}

func TestKernelModeRoundTrip(t *testing.T) {
	for _, m := range []KernelMode{KernelExact, KernelFast32} {
		got, err := ParseKernelMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseKernelMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseKernelMode(""); err != nil || got != KernelExact {
		t.Errorf("ParseKernelMode(\"\") = %v, %v; want exact", got, err)
	}
	for _, bad := range []string{"turbo", "fast"} {
		if _, err := ParseKernelMode(bad); err == nil {
			t.Errorf("ParseKernelMode(%s) should fail", bad)
		}
	}
	var m KernelMode
	if err := m.UnmarshalText([]byte("fast32")); err != nil || m != KernelFast32 {
		t.Errorf("UnmarshalText(fast32) = %v, %v", m, err)
	}
}

// TestKernelExactDelegation pins that mode KernelExact through the
// kernel entry point is bit-identical to the plain ForwardBatch path.
func TestKernelExactDelegation(t *testing.T) {
	n, xs, rows := kernelTestNet(t, Sigmoid)
	a := n.ForwardBatch(xs, rows, NewScratch())
	b := n.ForwardBatchKernel(xs, rows, NewScratch(), KernelExact)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("exact kernel diverged from ForwardBatch at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestFastKernelsWithinBound asserts every fast32 output is within
// the derived FastErrorBound of the exact kernel, for both
// activations.
func TestFastKernelsWithinBound(t *testing.T) {
	for _, act := range []Activation{Sigmoid, Tanh} {
		n, xs, rows := kernelTestNet(t, act)
		bound := n.FastErrorBound()
		exact := append([]float64(nil), n.ForwardBatchKernel(xs, rows, NewScratch(), KernelExact)...)
		got := n.ForwardBatchKernel(xs, rows, NewScratch(), KernelFast32)
		worst := 0.0
		for i := range exact {
			d := math.Abs(got[i] - exact[i])
			if d > worst {
				worst = d
			}
			if d > bound {
				t.Fatalf("%s output %d: |%g - %g| = %.3g exceeds bound %.3g",
					act, i, got[i], exact[i], d, bound)
			}
		}
		t.Logf("%s worst abs error %.3g (bound %.3g)", act, worst, bound)
	}
}

// TestKernelBatchSplitBitIdentity pins the chunking invariant the
// sweep engine relies on: within a mode, running a batch in one call
// or in any sequence of sub-batches yields identical bits.
func TestKernelBatchSplitBitIdentity(t *testing.T) {
	n, xs, rows := kernelTestNet(t, Sigmoid)
	outW := n.cfg.Outputs
	for _, mode := range []KernelMode{KernelExact, KernelFast32} {
		whole := append([]float64(nil), n.ForwardBatchKernel(xs, rows, NewScratch(), mode)...)
		for _, chunk := range []int{1, 3, 4, 17, 64, 1000} {
			s := NewScratch()
			got := make([]float64, 0, rows*outW)
			for r := 0; r < rows; r += chunk {
				end := r + chunk
				if end > rows {
					end = rows
				}
				out := n.ForwardBatchKernel(xs[r*n.cfg.Inputs:end*n.cfg.Inputs], end-r, s, mode)
				got = append(got, out[:(end-r)*outW]...)
			}
			for i := range whole {
				if math.Float64bits(whole[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%s chunk=%d: output %d differs: %x vs %x",
						mode, chunk, i, math.Float64bits(whole[i]), math.Float64bits(got[i]))
				}
			}
		}
	}
}

// TestKernelVectorScalarParity pins the contract of the optional
// vector kernels: the fast32 tier's bits are *defined* by the portable
// Go loops, and any accelerated path (hidden16AVX2 + the mathx slice
// kernels on amd64) must reproduce them exactly. The expected values
// are computed by driving the portable per-layer kernels directly, so
// on machines where the vector path is live this is an asm-vs-Go
// bit-parity test; elsewhere it is a tautology and always passes.
func TestKernelVectorScalarParity(t *testing.T) {
	for _, act := range []Activation{Sigmoid, Tanh} {
		n, xs, rows := kernelTestNet(t, act)
		got := n.ForwardBatchKernel(xs, rows, NewScratch(), KernelFast32)

		// Portable reference: per-call float32 rounding of weights and
		// inputs, then the scalar blocked loops for every layer.
		w32 := make([]float32, len(n.w))
		for i, w := range n.w {
			w32[i] = float32(w)
		}
		in := make([]float32, len(xs))
		for i, x := range xs {
			in[i] = float32(x)
		}
		var out []float32
		for _, l := range n.layers {
			out = make([]float32, rows*l.out)
			l.forwardBatch32(w32, in, rows, out)
			in = out
		}
		for i, v := range out {
			if math.Float64bits(got[i]) != math.Float64bits(float64(v)) {
				t.Fatalf("%s: fast32 output %d: vector path %x, portable path %x",
					act, i, math.Float64bits(got[i]), math.Float64bits(float64(v)))
			}
		}
	}
}

// TestSnapshotFlatRoundTrip pins the snapshot pair early stopping
// relies on: RestoreFlat brings back exactly the weights SnapshotInto
// captured, clears the momentum state, and SnapshotInto reuses the
// caller's buffer.
func TestSnapshotFlatRoundTrip(t *testing.T) {
	n, _, _ := kernelTestNet(t, Sigmoid)
	flat := n.SnapshotInto(nil)
	saved := append([]float64(nil), n.w...)
	// Perturb, then restore.
	for i := range n.w {
		n.w[i] += 1
	}
	n.dwPrev[0] = 42
	n.RestoreFlat(flat)
	for _, d := range n.dwPrev {
		if d != 0 {
			t.Fatal("RestoreFlat must clear momentum state")
		}
	}
	for i := range saved {
		if n.w[i] != saved[i] {
			t.Fatalf("weight %d not restored: %g vs %g", i, n.w[i], saved[i])
		}
	}
	// Reuse: a second SnapshotInto must not allocate a new buffer.
	again := n.SnapshotInto(flat)
	if &again[0] != &flat[0] {
		t.Error("SnapshotInto should reuse the provided buffer")
	}
}
