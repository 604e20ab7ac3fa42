package ann_test

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/encoding"
	"repro/internal/studies"
)

// TestTrainStepVectorLive fails when, on an AVX2 CPU, the networks
// DefaultModelConfig trains on either study's encoding do not get the
// vector training step: ensembles would then train on the scalar path,
// and TestTrainStepVectorScalarParity would check a step nothing runs.
func TestTrainStepVectorLive(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("the vector training step needs AVX2")
	}
	for _, st := range studies.All() {
		width := encoding.NewEncoder(st.Space).Width()
		net := ann.New(core.DefaultModelConfig().NetConfig(width, 1))
		if !ann.TrainsWithVectorStep(net) {
			t.Errorf("%s study (%d inputs): DefaultModelConfig's network trains on the scalar path", st.Name, width)
		}
	}
}
