package core

import (
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestConcurrentPredictSharedEnsemble shares one trained ensemble across
// many goroutines calling the per-point prediction paths. Run under
// `go test -race` this proves the paths never touch network-owned
// scratch; the value checks prove concurrency changes no bits.
func TestConcurrentPredictSharedEnsemble(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 80
	cfg.Train.Patience = 20
	ens, probes := trainSynthEnsemble(t, cfg, 7)

	// Sequential golden values.
	wantMean := make([]float64, len(probes))
	wantVar := make([]float64, len(probes))
	wantAll := make([][]float64, len(probes))
	for i, x := range probes {
		wantMean[i], wantVar[i] = ens.PredictVariance(x)
		wantAll[i] = ens.PredictAll(x)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, x := range probes {
				if p := ens.Predict(x); p != wantMean[i] {
					errs <- "Predict diverged under concurrency"
					return
				}
				m, v := ens.PredictVariance(x)
				if m != wantMean[i] || v != wantVar[i] {
					errs <- "PredictVariance diverged under concurrency"
					return
				}
				all := ens.PredictAll(x)
				for o := range all {
					if all[o] != wantAll[i][o] {
						errs <- "PredictAll diverged under concurrency"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestConcurrentBatchAndPointPredict mixes batched and per-point calls
// on one shared ensemble, the serving layer's actual access pattern
// (coalesced batches racing ad-hoc single-point queries).
func TestConcurrentBatchAndPointPredict(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, probes := trainSynthEnsemble(t, cfg, 9)
	xs, rows := flatten(probes)
	want := make([]float64, rows)
	ens.PredictBatch(0, xs, rows, want, nil)

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got := make([]float64, rows)
			ens.PredictBatch(0, xs, rows, got, nil)
			for i := range got {
				if got[i] != want[i] {
					errs <- "PredictBatch diverged under concurrency"
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i, x := range probes {
				if p := ens.Predict(x); p != want[i] {
					errs <- "Predict disagreed with PredictBatch under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestExplorerRejectsOutOfRangeExclude(t *testing.T) {
	sp := synthSpace()
	base := ExploreConfig{Model: fastModel(), BatchSize: 10, MaxSamples: 20}
	for _, bad := range []int{-1, sp.Size(), sp.Size() + 17} {
		cfg := base
		cfg.Exclude = []int{0, bad}
		if err := cfg.Validate(sp); err == nil {
			t.Fatalf("Validate accepted out-of-range Exclude index %d", bad)
		}
	}
	cfg := base
	cfg.Exclude = []int{0, sp.Size() - 1}
	if err := cfg.Validate(sp); err != nil {
		t.Fatalf("Validate rejected valid Exclude indices: %v", err)
	}
}

// TestSensitivityDegenerateAxes trains a linear-target model on
// all-negative targets, so every swept minimum is ≤ 0 and no axis can
// measure a percentage swing: axes must be flagged Degenerate rather
// than reported as zero-influence.
func TestSensitivityDegenerateAxes(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(13)
	train := sp.Sample(rng, 50)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{-5 - synthTarget(sp, idx)}
	}
	cfg := fastModel()
	cfg.LogTarget = false // keep targets (and predictions) negative
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Sensitivity(ens, sp, 8, 3) {
		if !s.Degenerate || s.ValidBases != 0 {
			t.Fatalf("axis %s: want degenerate with 0 valid bases, got %+v", s.Name, s)
		}
		if s.Bases != 8 {
			t.Fatalf("axis %s: want 8 bases recorded, got %d", s.Name, s.Bases)
		}
		if s.MeanSwing != 0 {
			t.Fatalf("axis %s: degenerate axis must not carry a swing, got %g", s.Name, s.MeanSwing)
		}
	}
}

// TestSensitivityValidBasesOnHealthyModel pins the non-degenerate path:
// positive predictions keep every base valid.
func TestSensitivityValidBasesOnHealthyModel(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, _ := trainSynthEnsemble(t, cfg, 21)
	for _, s := range Sensitivity(ens, synthSpace(), 8, 3) {
		if s.Degenerate {
			t.Fatalf("axis %s unexpectedly degenerate", s.Name)
		}
		if s.ValidBases != s.Bases {
			t.Fatalf("axis %s: %d/%d valid bases on an all-positive surface", s.Name, s.ValidBases, s.Bases)
		}
	}
}
