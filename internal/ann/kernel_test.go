package ann

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func kernelTestNet(t testing.TB) (*Network, []float64, int) {
	t.Helper()
	cfg := Config{
		Inputs: 13, Hidden: []int{16}, Outputs: 2,
		HiddenAct: Sigmoid, OutputAct: Linear,
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

// TestKernelBatchSplitBitIdentity pins the chunking invariant the
// sweep engine relies on: running a batch in one call or in any
// sequence of sub-batches yields identical bits.
func TestKernelBatchSplitBitIdentity(t *testing.T) {
	n, xs, rows := kernelTestNet(t)
	outW := n.cfg.Outputs
	whole := append([]float64(nil), n.ForwardBatch(xs, rows, NewScratch())...)
	for _, chunk := range []int{1, 3, 4, 17, 64, 1000} {
		s := NewScratch()
		got := make([]float64, 0, rows*outW)
		for r := 0; r < rows; r += chunk {
			end := r + chunk
			if end > rows {
				end = rows
			}
			out := n.ForwardBatch(xs[r*n.cfg.Inputs:end*n.cfg.Inputs], end-r, s)
			got = append(got, out[:(end-r)*outW]...)
		}
		for i := range whole {
			if math.Float64bits(whole[i]) != math.Float64bits(got[i]) {
				t.Fatalf("chunk=%d: output %d differs: %x vs %x",
					chunk, i, math.Float64bits(whole[i]), math.Float64bits(got[i]))
			}
		}
	}
}

// TestSnapshotFlatRoundTrip pins the snapshot pair early stopping
// relies on: RestoreFlat brings back exactly the weights SnapshotInto
// captured, clears the momentum state, and SnapshotInto reuses the
// caller's buffer.
func TestSnapshotFlatRoundTrip(t *testing.T) {
	n, _, _ := kernelTestNet(t)
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
