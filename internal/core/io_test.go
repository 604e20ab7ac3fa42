package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/stats"
)

func trainedTestEnsemble(t *testing.T, outputs int) (*Ensemble, [][]float64) {
	t.Helper()
	sp := synthSpace()
	rng := stats.NewRNG(41)
	train := sp.Sample(rng, 50)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		v := synthTarget(sp, idx)
		row := make([]float64, outputs)
		for o := range row {
			row[o] = v / float64(o+1)
		}
		y[i] = row
	}
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ens, x
}

func TestEnsembleSaveLoadRoundTrip(t *testing.T) {
	ens, x := trainedTestEnsemble(t, 1)
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Members() != ens.Members() || loaded.Outputs() != ens.Outputs() {
		t.Fatal("shape not preserved")
	}
	if loaded.Estimate() != ens.Estimate() {
		t.Fatal("estimate not preserved")
	}
	for _, xi := range x[:10] {
		if got, want := loaded.Predict(xi), ens.Predict(xi); got != want {
			t.Fatalf("loaded ensemble predicts %v, original %v", got, want)
		}
	}
}

func TestEnsembleSaveLoadMultiOutput(t *testing.T) {
	ens, x := trainedTestEnsemble(t, 3)
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := ens.PredictAll(x[0])
	b := loaded.PredictAll(x[0])
	for o := range a {
		if a[o] != b[o] {
			t.Fatalf("output %d differs after round trip", o)
		}
	}
}

// mixedWidthEnsemble saves ens with member 1 swapped for a valid
// network over 7 more inputs: each member loads on its own, but
// Inputs(), which reads member 0, no longer describes member 1.
func mixedWidthEnsemble(t testing.TB, ens *Ensemble) []byte {
	t.Helper()
	wide := ann.New(ann.Config{
		Inputs: ens.Inputs() + 7, Hidden: []int{16}, Outputs: ens.Outputs(),
		LearningRate: 0.1, Momentum: 0.5, InitRange: 0.1, Seed: 3,
	})
	mixed := *ens
	mixed.nets = append([]*ann.Network{ens.nets[0], wide}, ens.nets[2:]...)
	var buf bytes.Buffer
	if err := mixed.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadEnsembleRejectsGarbage(t *testing.T) {
	if _, err := LoadEnsemble(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	ens, _ := trainedTestEnsemble(t, 1)
	_, err := LoadEnsemble(bytes.NewReader(mixedWidthEnsemble(t, ens)))
	if err == nil || !strings.Contains(err.Error(), "Inputs") || !strings.Contains(err.Error(), "member 1") {
		t.Fatalf("mixed-width ensemble: err %v, want one naming Inputs and member 1", err)
	}
	if _, err := LoadEnsemble(strings.NewReader(`{"version":99,"outputs":1,"nets":[{}]}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := LoadEnsemble(strings.NewReader(`{"version":1,"outputs":1,"scalers":[{"Lo":0,"Hi":1}],"nets":[]}`)); err == nil {
		t.Fatal("empty ensemble accepted")
	}
}

func TestSensitivityRanksInfluentialAxis(t *testing.T) {
	// synthTarget moves most strongly along axis "a" (0.3·log2 over
	// 1..8 = ±0.9) and the nominal "mode" multiplier; axis "c" spans
	// only ±0.1·b·1.0. Sensitivity must rank "a" above "c".
	ens, _ := trainedTestEnsemble(t, 1)
	sp := synthSpace()
	sens := Sensitivity(ens, sp, 16, 3)
	if len(sens) != sp.NumParams() {
		t.Fatalf("%d sensitivities for %d axes", len(sens), sp.NumParams())
	}
	byName := map[string]AxisSensitivity{}
	for _, s := range sens {
		if s.MeanSwing < 0 || s.MaxSwing < s.MeanSwing {
			t.Fatalf("inconsistent swing stats %+v", s)
		}
		byName[s.Name] = s
	}
	if byName["a"].Rank > byName["c"].Rank {
		t.Fatalf("axis a (rank %d) should outrank axis c (rank %d)",
			byName["a"].Rank, byName["c"].Rank)
	}
	ranked := RankedSensitivities(sens)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Rank != ranked[i-1].Rank+1 {
			t.Fatal("ranking not consecutive")
		}
	}
}

// tinyEnsemble trains three folds of 2-unit networks: a real saved
// artifact, small enough for the fuzzer to mutate quickly.
func tinyEnsemble(t testing.TB) *Ensemble {
	t.Helper()
	sp := synthSpace()
	enc := newTestEncoder(sp)
	var x, y [][]float64
	for _, idx := range sp.Sample(stats.NewRNG(5), 12) {
		x = append(x, enc.EncodeIndex(idx, nil))
		y = append(y, []float64{synthTarget(sp, idx)})
	}
	cfg := DefaultModelConfig()
	cfg.Folds, cfg.Hidden = 3, []int{2}
	cfg.Train.MaxEpochs = 5
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

// FuzzLoadEnsemble: no input panics the loader; an accepted ensemble
// saves to bytes that load and save again unchanged, and answers a
// batched prediction on one row of its width.
func FuzzLoadEnsemble(f *testing.F) {
	ens := tinyEnsemble(f)
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	f.Add(mixedWidthEnsemble(f, ens))
	f.Add(saved[:len(saved)/2])
	f.Add(bytes.Replace(saved, []byte(`"version":1`), []byte(`"version":2`), 1))
	f.Fuzz(func(t *testing.T, doc []byte) {
		e, err := LoadEnsemble(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := e.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := LoadEnsemble(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved ensemble: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load/save changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		mean, variance := make([]float64, 1), make([]float64, 1)
		e.PredictBatch(0, make([]float64, e.Inputs()), 1, mean, variance)
	})
}
