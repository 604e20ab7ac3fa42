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
