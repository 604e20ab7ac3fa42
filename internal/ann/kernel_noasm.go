//go:build !amd64

package ann

// kernelAsm16 is always false without a vector kernel; ForwardBatch
// runs the portable loop, which computes the same bits.
func kernelAsm16(l *layer, rows int) bool { return false }

func hidden16AVX2f64(wt *float64, xs *float64, rows, in int, dst *float64) {
	panic("ann: hidden16AVX2f64 is amd64-only")
}

// NewRangeNet returns nil where kernelAsm16 is false, so the range
// kernels never run.
func gatherAdd16AVX2(par, prods *float64, card, cols, k, rows int, dst *float64) {
	panic("ann: gatherAdd16AVX2 is amd64-only")
}

func gatherSigmoid16AVX512(par, prods *float64, card, cols, k, rows int, dst *float64) int {
	panic("ann: gatherSigmoid16AVX512 is amd64-only")
}

// outputAsm16 is always false without a vector kernel; ForwardBatch
// runs sumBatch.
func outputAsm16(l *layer, rows int) bool { return false }

func output16AVX2(w *float64, xs *float64, groups int, dst *float64) {
	panic("ann: output16AVX2 is amd64-only")
}

// sigmoidAsm is false without a vector sigmoid and exp; exactBatch runs
// the scalar loops.
const sigmoidAsm = false

func sigmoidAVX2(ys *float64, groups int) int {
	panic("ann: sigmoidAVX2 is amd64-only")
}

// exp512 is false without a vector sigmoid and exp.
var exp512 = false

func sigmoidAVX512(ys *float64, groups int) int {
	panic("ann: sigmoidAVX512 is amd64-only")
}

func expAVX2(ys *float64, groups int) int {
	panic("ann: expAVX2 is amd64-only")
}

func expAVX512(ys *float64, groups int) int {
	panic("ann: expAVX512 is amd64-only")
}

// trainAsm16 is always false without a vector kernel; TrainEarlyStopping
// trains with Network.Train.
func trainAsm16(n *Network) bool { return false }

func update16AVX2(wt, mt, xs *float64, in int, lrd *float64, mom float64) {
	panic("ann: update16AVX2 is amd64-only")
}

// reduceAsm is false without vector kernels: AffineBatch and Moments
// run their scalar loops.
const reduceAsm = false

func affineAVX2(ys *float64, groups int, lo, span float64) {
	panic("ann: affineAVX2 is amd64-only")
}

func momentsAVX2(preds *float64, members, cnt, groups int, fm float64, mean, variance *float64) {
	panic("ann: momentsAVX2 is amd64-only")
}
