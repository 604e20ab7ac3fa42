package repro_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/studies"
)

// TestEndToEndExploration runs the complete paper pipeline on a small
// budget: design space → simulation oracle → exploration driver →
// ensemble → predictions on unseen points, asserting the three
// properties the paper claims: the model learns, the self-estimate
// tracks true error, and everything is deterministic.
func TestEndToEndExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end exploration is seconds-long; skipped with -short")
	}
	st := studies.Processor()
	oracle := experiments.NewSimOracle(st, "mesa", 10000, experiments.IPCOnly)

	model := core.DefaultModelConfig()
	model.Train.MaxEpochs = 200
	model.Train.Patience = 40
	cfg := core.ExploreConfig{
		Model:      model,
		BatchSize:  75,
		MaxSamples: 225,
		Seed:       1234,
	}
	d, err := explore.New(st.Space, oracle, explore.Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Error should not grow as data is added (allowing small noise).
	steps := d.Steps()
	if len(steps) != 3 {
		t.Fatalf("expected 3 rounds, got %d", len(steps))
	}
	if steps[2].Est.MeanErr > steps[0].Est.MeanErr*1.5 {
		t.Fatalf("estimated error grew: %.2f%% → %.2f%%",
			steps[0].Est.MeanErr, steps[2].Est.MeanErr)
	}

	// True error on unseen points must be in the estimate's ballpark.
	sampled := map[int]bool{}
	for _, idx := range d.Samples() {
		sampled[idx] = true
	}
	enc := d.Encoder()
	var errSum float64
	count := 0
	for idx := 7; count < 150; idx += 131 {
		if sampled[idx%st.Space.Size()] {
			continue
		}
		i := idx % st.Space.Size()
		truth, err := oracle.IPCs([]int{i})
		if err != nil {
			t.Fatal(err)
		}
		pred := ens.Predict(enc.EncodeIndex(i, nil))
		errSum += math.Abs(pred-truth[0]) / truth[0] * 100
		count++
	}
	trueErr := errSum / float64(count)
	est := ens.Estimate().MeanErr
	if trueErr > 25 {
		t.Fatalf("true error %.2f%% too high for a 1%% processor-study sample", trueErr)
	}
	if math.Abs(trueErr-est) > 10 {
		t.Fatalf("estimate %.2f%% far from true %.2f%%", est, trueErr)
	}

	// Persistence: a saved+loaded model predicts identically.
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe := enc.EncodeIndex(999, nil)
	if loaded.Predict(probe) != ens.Predict(probe) {
		t.Fatal("persisted model predicts differently")
	}

	// Sensitivity: the swept axes must include every study parameter.
	sens := core.Sensitivity(ens, st.Space, 8, 2)
	if len(sens) != st.Space.NumParams() {
		t.Fatalf("sensitivity covered %d of %d axes", len(sens), st.Space.NumParams())
	}
}

// TestDeterministicPipeline asserts bit-identical results across two
// independent full pipeline runs with the same seeds.
func TestDeterministicPipeline(t *testing.T) {
	run := func() (core.Estimate, float64) {
		st := studies.MemorySystem()
		oracle := experiments.NewSimOracle(st, "gzip", 8000, experiments.IPCOnly)
		model := core.DefaultModelConfig()
		model.Train.MaxEpochs = 80
		model.Train.Patience = 20
		cfg := core.ExploreConfig{Model: model, BatchSize: 60, MaxSamples: 60, Seed: 77}
		d, err := explore.New(st.Space, oracle, explore.Config{ExploreConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		enc := encoding.NewEncoder(st.Space)
		return ens.Estimate(), ens.Predict(enc.EncodeIndex(4242, nil))
	}
	estA, predA := run()
	estB, predB := run()
	if estA != estB || predA != predB {
		t.Fatalf("pipeline not deterministic: %+v/%v vs %+v/%v", estA, predA, estB, predB)
	}
}
