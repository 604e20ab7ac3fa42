package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/encoding"
	"repro/internal/studies"
)

// goldenTrainDigests pins the saved bytes of ensembles trained on fixed
// data. Training code may be restructured for speed only if every
// floating-point operation, and so every weight, stays the same.
var goldenTrainDigests = map[string]string{
	"memory/default/1":    "8d0fc57f78eccb4b259f7d99ec7ad2f25475d7875929b59caef339076a918a05",
	"memory/default/2":    "a6dcc41abfa1a0ed9544613c28a56d71a444b78dbba1ba5520e21890b4668982",
	"memory/paper/1":      "d0557f6f9ee5a2181170e2a32c25036d0cf21f199370586266cd71b19e0ed258",
	"memory/paper/2":      "62dbbc3d44762e7611dae0f16520fd60a6df965b17ea82cba85f68608712bb2e",
	"processor/default/1": "b7760debbd2ecdbc705b540331b7bed7c0e88744f4ba574b56f21e33635a2e4e",
	"processor/default/2": "5ff5ed5287cb810f07f6e5a6c4b31aabe6d8d34142e43df8c5801bbf53ba4235",
	"processor/paper/1":   "041c39b814f47e61ee2b376d181dfe3102694d432eb4649d806521d78ba0a501",
	"processor/paper/2":   "b92c48e17bf0b9ac5c0c0594032d2c724410d31707f7c7ad761ecf848610ca3f",
}

// TestGoldenTrainDigest trains ensembles on 100 fixed encoded points of
// each study, with one and two outputs, under DefaultModelConfig
// (log-space targets, permuted presentation) and PaperConfig (linear
// targets, weighted presentation), and hashes the Ensemble.Save bytes.
// Epoch limits are cut so that the whole test runs in about a second.
func TestGoldenTrainDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("training bits are pinned on amd64 only: Go may fuse x*y+z into one rounding on other architectures")
	}
	configs := []struct {
		name string
		cfg  ModelConfig
	}{
		{"default", DefaultModelConfig()},
		{"paper", PaperConfig()},
	}
	for _, st := range studies.All() {
		enc := encoding.NewEncoder(st.Space)
		const n = 100
		x := make([][]float64, n)
		raws := make([][]float64, n)
		for i := range x {
			x[i] = enc.EncodeIndex((i*7919+101)%st.Space.Size(), nil)
			// Two smooth positive targets standing in for IPC and a
			// miss rate.
			a, b := 0.3, 0.0
			for j, v := range x[i] {
				a += v * float64(j%5+1) * 0.07
				b += v * float64(j%3+1)
			}
			raws[i] = []float64{a + 0.2*x[i][0]*x[i][1], 1 / (2 + b)}
		}
		for _, c := range configs {
			for outputs := 1; outputs <= 2; outputs++ {
				name := fmt.Sprintf("%s/%s/%d", st.Name, c.name, outputs)
				t.Run(name, func(t *testing.T) {
					cfg := c.cfg
					cfg.Train.MaxEpochs = 150
					cfg.Train.Patience = 25
					cfg.Workers = 1
					cfg.Seed = 42
					ys := make([][]float64, n)
					for i := range ys {
						ys[i] = raws[i][:outputs]
					}
					ens, err := TrainEnsemble(x, ys, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := ens.Save(&buf); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf.Bytes())
					if got, want := hex.EncodeToString(sum[:]), goldenTrainDigests[name]; got != want {
						t.Fatalf("Ensemble.Save digest %s, want %s", got, want)
					}
				})
			}
		}
	}
}
