package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/studies"
)

// goldenSweepDigests pins the sweep.Run documents of both studies'
// full spaces, ranked by goldenEnsemble's mean and variance. The
// encoder, the forward kernels, the target untransform and the
// reduction may be restructured for speed only if every document stays
// byte-identical. The sigmoid and the untransform call math.Exp, whose
// FMA and non-FMA amd64 branches round differently: these digests hold
// where it takes its FMA branch, goldenSweepDigestsNoFMA where it does
// not.
var goldenSweepDigests = map[string]string{
	"memory":    "845040687a4aa790b6ed576f9cfe3f570c3f70318b1f80b493065eeed4fd3e3a",
	"processor": "3e532502b36cbc0b570bf8eeea92a08133de37ea485e0a9ce0a5a12b05ff9411",
}

// goldenSweepDigestsNoFMA pins the same documents where math.Exp takes
// its non-FMA branch: a CPU without FMA, or GODEBUG=cpu.fma=off below
// GOAMD64=v3.
var goldenSweepDigestsNoFMA = map[string]string{
	"memory":    "d245edfa01552c79f410caccb8c66ca752b95b4c724a139cbe20981b30954d94",
	"processor": "339798830c82eb93a1aae1254a603a718c35a0129e6847e3dff99276d7c85197",
}

// goldenEnsemble is a fixed 10-member ensemble over inputs-wide
// encodings with no training behind it: DefaultModelConfig's network
// shape (16 sigmoid hidden units, one linear output), weights drawn by
// ann.New on U[-2,2] from per-member seeds so that predictions spread
// widely, and a log-space target scaled to [0.1, 3], so that every
// prediction goes through the untransform's exp.
func goldenEnsemble(t testing.TB, inputs int) *core.Ensemble {
	t.Helper()
	return goldenEnsembleOf(t, inputs, 16, 1)
}

// goldenEnsembleOf is goldenEnsemble with hidden units in its hidden
// layer and every hidden-layer weight and bias multiplied by scale; at
// 16 units and a scale of 300 some hidden sums of every study leave the
// vector sigmoid's one-multiply range in either half of the units, so
// rows take the scalar hand-off.
func goldenEnsembleOf(t testing.TB, inputs, hidden int, scale float64) *core.Ensemble {
	t.Helper()
	doc := struct {
		Version   int               `json:"version"`
		Outputs   int               `json:"outputs"`
		LogTarget bool              `json:"logTarget"`
		Scalers   []encoding.Scaler `json:"scalers"`
		Nets      []json.RawMessage `json:"nets"`
	}{
		Version:   1,
		Outputs:   1,
		LogTarget: true,
		Scalers:   []encoding.Scaler{{Lo: math.Log(0.1), Hi: math.Log(3)}},
	}
	for m := 0; m < 10; m++ {
		cfg := core.DefaultModelConfig().NetConfig(inputs, 1)
		cfg.Hidden = []int{hidden}
		cfg.InitRange = 2
		cfg.Seed = uint64(1000 + m)
		var buf bytes.Buffer
		if err := ann.New(cfg).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if scale != 1 {
			var net map[string]json.RawMessage
			var weights [][]float64
			if err := json.Unmarshal(buf.Bytes(), &net); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(net["weights"], &weights); err != nil {
				t.Fatal(err)
			}
			for i := range weights[0] {
				weights[0][i] *= scale
			}
			raw, err := json.Marshal(weights)
			if err != nil {
				t.Fatal(err)
			}
			net["weights"] = raw
			b, err := json.Marshal(net)
			if err != nil {
				t.Fatal(err)
			}
			buf = *bytes.NewBuffer(b)
		}
		doc.Nets = append(doc.Nets, buf.Bytes())
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := core.LoadEnsemble(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

// TestGoldenSweepDigest sweeps each study's whole space through
// goldenEnsemble with DefaultSpecs' mean + variance metrics and the
// default top-k, at workers 1 and 3 (one goroutine, then each chunk's
// 512-row pieces fanned out), and hashes the JSON result document,
// with the two wall-clock fields zeroed, against the table of
// math.Exp's branch. TestRunMatchesReference cannot catch an error that
// Run and Reference share, since both go through the same encoder and
// kernels; this test can.
func TestGoldenSweepDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("sweep bits are pinned on amd64 only: Go may fuse x*y+z into one rounding on other architectures")
	}
	var branch string
	var digests map[string]string
	switch bits := math.Float64bits(math.Exp(7.25)); bits {
	case 0x4096006b5d53e8d9:
		branch, digests = "FMA", goldenSweepDigests
	case 0x4096006b5d53e8d8:
		branch, digests = "non-FMA", goldenSweepDigestsNoFMA
	default:
		t.Fatalf("math.Exp(7.25) = %#x matches neither branch's recorded bits", bits)
	}
	t.Logf("math.Exp takes its %s branch", branch)
	for _, st := range studies.All() {
		t.Run(st.Name, func(t *testing.T) {
			enc := encoding.NewEncoder(st.Space)
			b, err := bundle.New(st.Space, goldenEnsemble(t, enc.Width()), bundle.Meta{Study: st.Name, Metric: "ipc"})
			if err != nil {
				t.Fatal(err)
			}
			set, sp, err := Resolve(DefaultSpecs([]string{"m"}), map[string]*bundle.Bundle{"m": b})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				res, err := Run(context.Background(), sp, set, Config{TopK: DefaultTopK, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if res.Points != sp.Size() {
					t.Fatalf("swept %d points, space has %d", res.Points, sp.Size())
				}
				res.Elapsed, res.PointsPerSec = 0, 0
				doc, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(doc)
				if got, want := hex.EncodeToString(sum[:]), digests[st.Name]; got != want {
					t.Fatalf("workers %d: sweep document digest %s, want %s (%s branch; frontier %d points)", workers, got, want, branch, len(res.Frontier))
				}
			}
		})
	}
}

// TestGoldenSweepDigestNoFMA reruns TestGoldenSweepDigest in a child
// process with GODEBUG=cpu.fma=off, which (below GOAMD64=v3) sends
// math.Exp, and with it the vector kernels' start-up probe, down the
// non-FMA branch: documents must then match the non-FMA table.
func TestGoldenSweepDigestNoFMA(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("sweep bits are pinned on amd64 only")
	}
	if testing.Short() {
		t.Skip("spawns a child test process")
	}
	cmd := exec.Command(os.Args[0], "-test.count=1", "-test.v", "-test.run=^TestGoldenSweepDigest$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("TestGoldenSweepDigest under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "--- PASS: TestGoldenSweepDigest") {
		t.Fatalf("child process ran no golden digest test:\n%s", out)
	}
	if !strings.Contains(string(out), "takes its non-FMA branch") {
		t.Logf("GODEBUG=cpu.fma=off left math.Exp on its FMA branch (GOAMD64=v3 or above); the child checked the FMA table again")
	}
}
