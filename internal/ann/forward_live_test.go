package ann_test

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/encoding"
	"repro/internal/studies"
)

// TestOutputKernelLive fails when, on an AVX2 CPU, the networks
// DefaultModelConfig trains on either study's encoding do not get the
// output-layer kernel for a 4-row batch: sweeps would then score their
// output layer on the scalar path, and TestOutputKernelVectorScalarParity
// would check a kernel nothing runs.
func TestOutputKernelLive(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("the output kernel needs AVX2")
	}
	for _, st := range studies.All() {
		width := encoding.NewEncoder(st.Space).Width()
		net := ann.New(core.DefaultModelConfig().NetConfig(width, 1))
		if !ann.ScoresWithOutputKernel(net, 4) {
			t.Errorf("%s study (%d inputs): DefaultModelConfig's network scores its output layer on the scalar path", st.Name, width)
		}
	}
}
