package ann_test

import (
	"os"
	"strings"
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

// TestRangeKernelLive fails when, on an AVX2 CPU, the networks
// DefaultModelConfig trains on either study's encoding do not get a
// RangeNet (sweeps would then encode rows and run the layer kernel), or
// when, on a CPU with AVX-512, AVX2 and FMA, their RangeNet does not
// write layer 0 through the fused kernel: TestRangeForwardParity and
// TestGatherSigmoidEdgeRows would then check a path nothing runs.
func TestRangeKernelLive(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("the range path needs AVX2")
	}
	fused := cpufeat.AVX512 && cpufeat.FMA && !strings.Contains(os.Getenv("GODEBUG"), "cpu.")
	for _, st := range studies.All() {
		enc := encoding.NewEncoder(st.Space)
		r := ann.NewRangeNet(ann.New(core.DefaultModelConfig().NetConfig(enc.Width(), 1)), enc.Axes())
		switch {
		case r == nil:
			t.Errorf("%s study: DefaultModelConfig's network gets no range path on an AVX2 CPU", st.Name)
		case fused && !ann.RangeFused(r):
			t.Errorf("%s study: DefaultModelConfig's network writes layer 0 without the fused kernel on an AVX-512 CPU", st.Name)
		}
	}
}
