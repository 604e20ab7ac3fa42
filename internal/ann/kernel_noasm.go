//go:build !amd64

package ann

// kernelAsm16 is always false without a vector kernel; ForwardBatch
// runs the portable loop, which computes the same bits.
func kernelAsm16(l *layer, rows int) bool { return false }

func hidden16AVX2f64(wt *float64, xs *float64, rows, in int, dst *float64) {
	panic("ann: hidden16AVX2f64 is amd64-only")
}

// sigmoidAsm is false without a vector sigmoid; sigmoidExact runs the
// scalar loop.
const sigmoidAsm = false

func sigmoidAVX2(ys *float64, groups int) int {
	panic("ann: sigmoidAVX2 is amd64-only")
}

// trainAsm16 is always false without a vector kernel; TrainEarlyStopping
// trains with Network.Train.
func trainAsm16(n *Network) bool { return false }

func update16AVX2(wt, mt, xs *float64, in int, lrd *float64, mom float64) {
	panic("ann: update16AVX2 is amd64-only")
}
