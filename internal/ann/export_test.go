package ann

// TrainsWithVectorStep reports whether TrainEarlyStopping trains n with
// the vector step; it exports trainAsm16 to the external tests.
var TrainsWithVectorStep = trainAsm16

// ScoresWithOutputKernel reports whether ForwardBatch runs n's output
// layer through output16AVX2 on a batch of rows; it exports outputAsm16
// to the external tests.
func ScoresWithOutputKernel(n *Network, rows int) bool {
	return outputAsm16(n.layers[len(n.layers)-1], rows)
}

// RangeFused reports whether ForwardRange writes r's layer 0 through
// the fused AVX-512 kernel; it exports RangeNet.fused to the external
// tests.
func RangeFused(r *RangeNet) bool { return r.fused }
