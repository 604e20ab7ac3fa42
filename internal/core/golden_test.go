package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/studies"
)

// goldenTrainDigests pins the saved bytes of ensembles trained on fixed
// data. Training code may be restructured for speed only if every
// floating-point operation, and so every weight, stays the same. The
// sigmoid's math.Exp has two amd64 branches that round differently:
// these digests hold where it takes its FMA branch (a CPU with AVX and
// FMA), goldenTrainDigestsNoFMA where it does not.
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

// goldenTrainDigestsNoFMA pins the same ensembles where math.Exp takes
// its non-FMA branch: a CPU without FMA, or GODEBUG=cpu.fma=off below
// GOAMD64=v3.
var goldenTrainDigestsNoFMA = map[string]string{
	"memory/default/1":    "8d8a538bf0ff53183eed320d04068032f0a47adf9d9dac05c913f1bb90dfa11a",
	"memory/default/2":    "c8ab3f68b7217974d3c36599d4d5b09ca457724ba72477f657699814f662b551",
	"memory/paper/1":      "70a1c0c0bbf5caaa11f91745d3217490e766ecb5cb8c6726211a217427590354",
	"memory/paper/2":      "3ab6e5a479832b431f04d975e62f87941cf530f6239507fd82b75477aecfc1dd",
	"processor/default/1": "90fe1c61e04f8d4829c8afc9a5addfa5bc048513369ec412ba8b279e20eea040",
	"processor/default/2": "f77bacad529104d005be969b005c499b548a30aa197505e968a1304d9c927fa0",
	"processor/paper/1":   "dc13a5852db896fb0137b7a69053a23c6751a58f6d4bc89acc776d9b2fe128a7",
	"processor/paper/2":   "dec7ec8bad7c73bb21e19725a3252ebfcb52768280ec68500f5c459fbaf675ba",
}

// expBranchDigests picks the digest table for the branch math.Exp
// takes in this process, told apart by exp(7.25), whose last bit the
// two branches round differently.
func expBranchDigests(t *testing.T) (branch string, digests map[string]string) {
	switch bits := math.Float64bits(math.Exp(7.25)); bits {
	case 0x4096006b5d53e8d9:
		return "FMA", goldenTrainDigests
	case 0x4096006b5d53e8d8:
		return "non-FMA", goldenTrainDigestsNoFMA
	default:
		t.Fatalf("math.Exp(7.25) = %#x matches neither branch's recorded bits", bits)
		return "", nil
	}
}

// TestGoldenTrainDigest trains ensembles on 100 fixed encoded points of
// each study, with one and two outputs, under DefaultModelConfig
// (log-space targets, permuted presentation) and PaperConfig (linear
// targets, weighted presentation), and hashes the Ensemble.Save bytes
// against the table of math.Exp's branch. Epoch limits are cut so that
// the whole test runs in about a second.
func TestGoldenTrainDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("training bits are pinned on amd64 only: Go may fuse x*y+z into one rounding on other architectures")
	}
	branch, digests := expBranchDigests(t)
	t.Logf("math.Exp takes its %s branch", branch)
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
					if got, want := hex.EncodeToString(sum[:]), digests[name]; got != want {
						t.Fatalf("Ensemble.Save digest %s, want %s (%s branch)", got, want, branch)
					}
				})
			}
		}
	}
}

// TestGoldenTrainDigestNoFMA reruns TestGoldenTrainDigest in a child
// process with GODEBUG=cpu.fma=off, which (below GOAMD64=v3) sends
// math.Exp, and with it the vector sigmoid's start-up probe, down the
// non-FMA branch: trained bytes must then match the non-FMA table.
func TestGoldenTrainDigestNoFMA(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("training bits are pinned on amd64 only")
	}
	if testing.Short() {
		t.Skip("spawns a child test process")
	}
	cmd := exec.Command(os.Args[0], "-test.count=1", "-test.v", "-test.run=^TestGoldenTrainDigest$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("TestGoldenTrainDigest under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "--- PASS: TestGoldenTrainDigest") {
		t.Fatalf("child process ran no golden digest test:\n%s", out)
	}
	if !strings.Contains(string(out), "takes its non-FMA branch") {
		t.Logf("GODEBUG=cpu.fma=off left math.Exp on its FMA branch (GOAMD64=v3 or above); the child checked the FMA table again")
	}
}
