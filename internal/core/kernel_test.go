package core

import (
	"math"
	"testing"

	"repro/internal/ann"
	"repro/internal/stats"
)

// kernelTestEnsemble trains a quick ensemble over the synthetic space
// and returns it with every design point encoded, ready for a
// full-grid evaluation.
func kernelTestEnsemble(t *testing.T, logT bool) (*Ensemble, []float64, int) {
	t.Helper()
	sp := synthSpace()
	enc := newTestEncoder(sp)
	cfg := DefaultModelConfig()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 20
	cfg.LogTarget = logT
	cfg.Seed = 17
	rng := stats.NewRNG(17)
	train := sp.Sample(rng, 60)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := sp.Size()
	xs := make([]float64, rows*enc.Width())
	for idx := 0; idx < rows; idx++ {
		enc.EncodeIndex(idx, xs[idx*enc.Width():(idx+1)*enc.Width()])
	}
	return ens, xs, rows
}

// memberExact computes each member's exact prediction for every row —
// the reference the bound propagation measures spread against.
// preds[m*rows+r] is member m's raw-space prediction for row r.
func memberExact(e *Ensemble, xs []float64, rows int) []float64 {
	preds := make([]float64, len(e.nets)*rows)
	s := ann.NewScratch()
	for m, n := range e.nets {
		out := n.ForwardBatchKernel(xs, rows, s, ann.KernelExact)
		for r := 0; r < rows; r++ {
			preds[m*rows+r] = e.untransform(e.scalers[0].Unscale(out[r*e.outputs]))
		}
	}
	return preds
}

// TestEvalKernelFullGridBounds is the acceptance gate for the fast32
// kernel tier at the metric level: over the ENTIRE benchmark-space
// grid, every fast32 mean and variance column must lie within an
// error bound of the exact column derived purely from the documented
// contracts — ann.FastErrorBound for the network outputs, the affine
// unscale span, the mathx.Exp relative contract for log-transformed
// targets, and a spread-based perturbation bound for the variance
// column. Nothing here is tuned to observed errors; if a kernel
// regressed past its contract this fails.
func TestEvalKernelFullGridBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		logT bool
	}{{"linear", false}, {"log", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ens, xs, rows := kernelTestEnsemble(t, tc.logT)
			set, err := NewMetricSet([]Metric{
				{Name: "perf", Ens: ens},
				{Name: "conf", Ens: ens, Kind: MetricVariance, Minimize: true},
			})
			if err != nil {
				t.Fatal(err)
			}

			// Network-output bounds, worst case over the members, then
			// pushed through the affine unscale (span is exact; the FMA
			// fusion in the fast path differs from the exact path only
			// at the float64 rounding level — the 1e-12 slack).
			var net float64
			for _, n := range ens.nets {
				net = math.Max(net, n.FastErrorBound())
			}
			sc := ens.scalers[0]
			span := math.Abs(sc.Hi - sc.Lo)
			uerr := net*span + 1e-12 // unscaled model-space bound per member output

			preds := memberExact(ens, xs, rows)
			members := len(ens.nets)

			exact := [][]float64{make([]float64, rows), make([]float64, rows)}
			set.Eval(xs, rows, exact)

			got := [][]float64{make([]float64, rows), make([]float64, rows)}
			set.EvalKernel(xs, rows, got, ann.KernelFast32)
			worstMean, worstVar := 0.0, 0.0 // worst error/bound ratios
			for r := 0; r < rows; r++ {
				// Per-member raw-space bound for this row: linear
				// targets inherit the unscaled bound directly; log
				// targets pass through exp, so the bound scales with
				// the prediction (argument perturbation via expm1,
				// plus the mathx.Exp 2e-8 relative contract).
				bp := uerr
				if tc.logT {
					bp = 0
					for m := 0; m < members; m++ {
						p := preds[m*rows+r]
						bp = math.Max(bp, p*(math.Expm1(uerr)+3e-8)*1.02)
					}
				}
				dMean := math.Abs(got[0][r] - exact[0][r])
				if dMean > bp {
					t.Fatalf("row %d mean: |%g - %g| = %.3g exceeds bound %.3g",
						r, got[0][r], exact[0][r], dMean, bp)
				}
				worstMean = math.Max(worstMean, dMean/bp)
				// Variance: each member moves ≤ bp and the mean moves
				// with it, so each deviation d_m (|d_m| ≤ spread S)
				// shifts by ≤ 2·bp and each square by ≤ 4·S·bp+4·bp².
				mu, s := 0.0, 0.0
				for m := 0; m < members; m++ {
					mu += preds[m*rows+r]
				}
				mu /= float64(members)
				for m := 0; m < members; m++ {
					s = math.Max(s, math.Abs(preds[m*rows+r]-mu))
				}
				bv := 4*s*bp + 4*bp*bp + 1e-15
				dVar := math.Abs(got[1][r] - exact[1][r])
				if dVar > bv {
					t.Fatalf("row %d variance: |%g - %g| = %.3g exceeds bound %.3g",
						r, got[1][r], exact[1][r], dVar, bv)
				}
				worstVar = math.Max(worstVar, dVar/bv)
			}
			t.Logf("worst mean error %.2f%% of bound, worst variance error %.2f%% of bound",
				100*worstMean, 100*worstVar)
		})
	}
}
