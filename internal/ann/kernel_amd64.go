package ann

import "repro/internal/cpufeat"

// hidden16AVX2f64 runs rows forward passes of one 16-unit layer: for
// each row, dst[r*16+j] = bias[j] + Σ_i xs[r*in+i]·wt[i*16+j],
// accumulated in ascending input order with one float64 rounding per
// multiply and per add, as in the portable sumBatch loop (asserted by
// TestExactKernelVectorScalarParity). wt is the transpose layout:
// input-major rows of 16 weights followed by one bias row.
//
//go:noescape
func hidden16AVX2f64(wt *float64, xs *float64, rows, in int, dst *float64)

// update16AVX2 applies one example's momentum update to a 16-unit
// layer held input-major (transpose's layout): for each input i and
// unit j, dw = lrd[j]·xs[i] + mom·mt[i][j], wt[i][j] += dw, mt[i][j] = dw,
// and for the bias row dw = lrd[j] + mom·mt[in][j]. Every multiply and
// add is rounded on its own, as in layer.update (asserted by
// TestTrainStepVectorScalarParity). lrd holds the 16 values -lr·δ_j.
//
//go:noescape
func update16AVX2(wt, mt, xs *float64, in int, lrd *float64, mom float64)

// sigmoidAVX2 applies the exact sigmoid in place to ys, four elements
// at a time for at most groups groups, stopping before the first group
// that needs the scalar path, and returns the number of elements it
// stored (see exactBatch).
//
//go:noescape
func sigmoidAVX2(ys *float64, groups int) int

// sigmoidAVX512 is sigmoidAVX2 on eight lanes, for groups 8-element
// groups.
//
//go:noescape
func sigmoidAVX512(ys *float64, groups int) int

// expAVX2 is sigmoidAVX2 for math.Exp: the same exp sequence without
// the negate before it and the 1+e and divide after it.
//
//go:noescape
func expAVX2(ys *float64, groups int) int

// output16AVX2 computes the pre-activation sums of a 1-unit layer over
// 16 inputs for 4·groups rows of xs: dst[r] = bias + Σ_i w[i]·xs[r*16+i]
// in ascending input order, one rounding per multiply and per add, as
// in sumBatch (asserted by TestOutputKernelVectorScalarParity). w is the
// layer's own row: 16 weights, then the bias.
//
//go:noescape
func output16AVX2(w *float64, xs *float64, groups int, dst *float64)

// gatherAdd16AVX2 writes rows of layer-0 sums for RangeNet: dst row r
// is the 16 sums of parent (k+r)/card (par's row of that number) plus
// the cols product rows of setting (k+r) mod card in prods, added in
// ascending column order with the sums as the first operand, one
// rounding per add, as in sumBatch (asserted by
// TestRangeForwardParity). rows and cols must be >= 1.
//
//go:noescape
func gatherAdd16AVX2(par, prods *float64, card, cols, k, rows int, dst *float64)

// gatherSigmoid16AVX512 is gatherAdd16AVX2 followed by the sigmoid of
// sigmoidAVX512 on both 8-unit halves of each row, one EXPV chain per
// half. It returns the number of rows stored: it stops before the first
// row with a lane that needs the scalar path (see sigmoidRows).
//
//go:noescape
func gatherSigmoid16AVX512(par, prods *float64, card, cols, k, rows int, dst *float64) int

// affineAVX2 sets ys[i] = lo + ys[i]·span for groups 4-element groups,
// one rounding per multiply and per add (see AffineBatch).
//
//go:noescape
func affineAVX2(ys *float64, groups int, lo, span float64)

// momentsAVX2 computes Moments for groups groups of four rows, one row
// per lane; mean and variance may each be nil.
//
//go:noescape
func momentsAVX2(preds *float64, members, cnt, groups int, fm float64, mean, variance *float64)

// reduceAsm reports whether AffineBatch and Moments run their AVX2
// kernels before the scalar tail.
var reduceAsm = cpufeat.AVX2

// kernelAsm16 reports whether the AVX2 16-unit layer kernel applies.
func kernelAsm16(l *layer, rows int) bool {
	return cpufeat.AVX2 && l.out == 16 && l.in > 0 && rows > 0
}

// outputAsm16 reports whether the AVX2 output kernel applies to the
// first rows/4·4 rows; sumBatch does the rest.
func outputAsm16(l *layer, rows int) bool {
	return cpufeat.AVX2 && l.out == 1 && l.in == 16 && rows >= 4
}

// trainAsm16 reports whether TrainEarlyStopping trains n with the
// vector step (step16): one 16-unit hidden layer on an AVX2 CPU.
func trainAsm16(n *Network) bool {
	return cpufeat.AVX2 && len(n.layers) == 2 && n.layers[0].out == 16
}

// sigmoidAsm reports whether the vector sigmoid and exp run. They
// repeat the fused multiply-adds of math.Exp's avxfma branch, which the
// runtime takes when the CPU has AVX and FMA (cpufeat.FMA) unless
// GODEBUG (cpu.fma=off, cpu.avx=off or cpu.all=off) turns them off for
// it. sigmoidProbe catches that case.
var sigmoidAsm = cpufeat.AVX2 && cpufeat.FMA && sigmoidProbe()

// sigmoid512 reports whether exactBatch runs the sigmoid through the
// 8-lane kernel before the 4-lane one: the same ops on twice the lanes,
// on a CPU with AVX-512 (cpufeat.AVX512) where sigmoidAsm holds. Tests
// turn it off to reach the 4-lane kernel on such a CPU.
var sigmoid512 = sigmoidAsm && cpufeat.AVX512

// sigmoidProbe reports whether the vector sigmoid matches the scalar
// expression on four inputs where math.Exp's FMA and non-FMA branches
// round differently. The exp kernel and the 8-lane sigmoid run the
// same sequence (EXPV in kernel_amd64.s), so the probe speaks for them
// too.
func sigmoidProbe() bool {
	ys := [4]float64{-7.25, -6.375, -3.625, -2.375}
	want := ys
	sigmoidScalar(want[:])
	return sigmoidAVX2(&ys[0], 1) == 4 && ys == want
}
