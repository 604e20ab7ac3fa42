package bundle

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

// testSpace mirrors the synthetic space of the core tests: mixed
// parameter kinds, including a nominal axis (one-hot) and a dependent
// axis, so the serialization covers every encoding shape.
func testSpace() *space.Space {
	return space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
		{Name: "dep", Kind: space.Cardinal, DependsOn: "a",
			Table: [][]float64{{1, 2}, {2, 4}, {4, 8}, {8, 16}}},
	})
}

func testTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	v := 0.4 + 0.3*math.Log2(sp.Value(c, 0)) + 0.1*sp.Value(c, 1) + 0.05*sp.Value(c, 3)
	if sp.LevelName(c, 2) == "y" {
		v *= 1.25
	}
	return v
}

func trainedBundle(t *testing.T) (*Bundle, []float64, int) {
	t.Helper()
	sp := testSpace()
	enc := encoding.NewEncoder(sp)
	rng := stats.NewRNG(17)
	train := sp.Sample(rng, 50)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{testTarget(sp, idx)}
	}
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sp, ens, Meta{Study: "synth", App: "unit", Metric: "IPC", Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Encoded probe matrix over part of the space.
	rows := 200
	if rows > sp.Size() {
		rows = sp.Size()
	}
	xs := make([]float64, rows*enc.Width())
	for i := 0; i < rows; i++ {
		enc.EncodeIndex(i, xs[i*enc.Width():(i+1)*enc.Width()])
	}
	return b, xs, rows
}

// TestBundleRoundTripBitIdentical is the acceptance property: a
// reloaded bundle must predict bit-for-bit what the in-memory model
// predicts, batch path included.
func TestBundleRoundTripBitIdentical(t *testing.T) {
	b, xs, rows := trainedBundle(t)
	path := filepath.Join(t.TempDir(), "synth.bundle")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Space.Name != b.Space.Name || loaded.Space.Size() != b.Space.Size() {
		t.Fatalf("space not preserved: %q/%d vs %q/%d",
			loaded.Space.Name, loaded.Space.Size(), b.Space.Name, b.Space.Size())
	}
	if loaded.Encoder.Width() != b.Encoder.Width() {
		t.Fatalf("encoder width %d, want %d", loaded.Encoder.Width(), b.Encoder.Width())
	}
	if loaded.Meta.Study != "synth" || loaded.Meta.App != "unit" || loaded.Meta.Metric != "IPC" {
		t.Fatalf("metadata not preserved: %+v", loaded.Meta)
	}
	if loaded.Meta.Model.Folds != b.Meta.Model.Folds || loaded.Meta.Model.LearningRate != b.Meta.Model.LearningRate {
		t.Fatalf("model provenance not preserved: %+v", loaded.Meta.Model)
	}
	if loaded.Ensemble.Estimate() != b.Ensemble.Estimate() {
		t.Fatal("CV estimate not preserved")
	}
	want, got := make([]float64, rows), make([]float64, rows)
	b.Ensemble.PredictBatch(0, xs, rows, want, nil)
	loaded.Ensemble.PredictBatch(0, xs, rows, got, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: reloaded model predicts %v, original %v", i, got[i], want[i])
		}
	}
	// Per-point parity on a few rows for good measure.
	w := b.Encoder.Width()
	for i := 0; i < 5; i++ {
		x := xs[i*w : (i+1)*w]
		if loaded.Ensemble.Predict(x) != b.Ensemble.Predict(x) {
			t.Fatalf("per-point prediction diverged on row %d", i)
		}
	}
}

// TestLoadIgnoresRetiredBatchSizeField pins compatibility with bundles
// that still carry the retired mini-batch training option (every bundle
// saved before its removal wrote "BatchSize":0 into its model config):
// such a file loads with the same provenance and predicts the same bits
// as the bundle that wrote it.
func TestLoadIgnoresRetiredBatchSizeField(t *testing.T) {
	b, xs, rows := trainedBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(buf.String(), `"Train":{`, `"Train":{"BatchSize":0,`, 1)
	if legacy == buf.String() {
		t.Fatal("saved bundle has no Train object to inject into")
	}
	loaded, err := Load(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Meta, b.Meta) {
		t.Fatalf("metadata changed: %+v, want %+v", loaded.Meta, b.Meta)
	}
	want, got := make([]float64, rows), make([]float64, rows)
	wantVar, gotVar := make([]float64, rows), make([]float64, rows)
	b.Ensemble.PredictBatch(0, xs, rows, want, wantVar)
	loaded.Ensemble.PredictBatch(0, xs, rows, got, gotVar)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(gotVar[i]) != math.Float64bits(wantVar[i]) {
			t.Fatalf("row %d: loaded (%v, %v), original (%v, %v)", i, got[i], gotVar[i], want[i], wantVar[i])
		}
	}
}

func TestBundleNewRejectsWidthMismatch(t *testing.T) {
	b, _, _ := trainedBundle(t)
	other := space.New("other", []space.Param{
		{Name: "only", Kind: space.Cardinal, Values: []float64{1, 2}},
	})
	if _, err := New(other, b.Ensemble, Meta{}); err == nil {
		t.Fatal("New accepted an ensemble trained on a different encoding width")
	}
}

func TestBundleLoadRejectsCorruption(t *testing.T) {
	b, _, _ := trainedBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"garbage":        "not json at all",
		"wrong version":  strings.Replace(good, `"version":1`, `"version":99`, 1),
		"empty space":    strings.Replace(good, `"params":[`, `"params":null,"unused":[`, 1),
		"encoder width":  strings.Replace(good, `"width":5`, `"width":8`, 1),
		"no ensemble":    strings.Replace(good, `"ensemble":{`, `"ensemble":null,"unused2":{`, 1),
		"member inputs":  strings.Replace(good, `"Inputs":5`, `"Inputs":4`, -1),
		"dropped scaler": strings.Replace(good, `"outputs":1`, `"outputs":2`, -1),
		// Ensemble.Inputs reads member 0 only, so the encoder-width
		// check alone would pass a wider member 1.
		"mixed member widths": string(widenMember1(t, buf.Bytes())),
	}
	for name, doc := range cases {
		if doc == good {
			t.Fatalf("case %q did not alter the document", name)
		}
		_, err := Load(strings.NewReader(doc))
		if err == nil {
			t.Errorf("Load accepted %s", name)
		} else if name == "mixed member widths" && !strings.Contains(err.Error(), "Inputs") {
			t.Errorf("%s: error %q does not name Inputs", name, err)
		}
	}
}

// widenMember1 rewrites member 1 of the ensemble inside a saved bundle
// or checkpoint as a valid network over 7 more inputs: every member
// loads on its own, but the members' input widths disagree.
func widenMember1(t testing.TB, doc []byte) []byte {
	t.Helper()
	marshal := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var top, ens map[string]json.RawMessage
	var nets []json.RawMessage
	var member struct {
		Config ann.Config `json:"config"`
	}
	if err := json.Unmarshal(doc, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["ensemble"], &ens); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ens["nets"], &nets); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(nets[1], &member); err != nil {
		t.Fatal(err)
	}
	member.Config.Inputs += 7
	var wide bytes.Buffer
	if err := ann.New(member.Config).Save(&wide); err != nil {
		t.Fatal(err)
	}
	nets[1] = wide.Bytes()
	ens["nets"] = marshal(nets)
	top["ensemble"] = marshal(ens)
	return marshal(top)
}

// tinyBundle trains three folds of 2-unit networks over testSpace: a
// real saved artifact, small enough for the fuzzer to mutate quickly.
func tinyBundle(t testing.TB) *Bundle {
	t.Helper()
	sp := testSpace()
	enc := encoding.NewEncoder(sp)
	var x, y [][]float64
	for _, idx := range sp.Sample(stats.NewRNG(5), 12) {
		x = append(x, enc.EncodeIndex(idx, nil))
		y = append(y, []float64{testTarget(sp, idx)})
	}
	cfg := core.DefaultModelConfig()
	cfg.Folds, cfg.Hidden = 3, []int{2}
	cfg.Train.MaxEpochs = 5
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sp, ens, Meta{Study: "synth", App: "unit", Metric: "IPC", Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resave runs save into a buffer and returns the bytes.
func resave(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBundleLoad: no input panics Load; an accepted bundle saves to
// bytes that load and save again unchanged, and predicts one encoded
// design point.
func FuzzBundleLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := tinyBundle(f).Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	f.Add(widenMember1(f, saved))
	f.Add(saved[:len(saved)/2])
	f.Add(bytes.Replace(saved, []byte(`"version":1`), []byte(`"version":2`), 1))
	f.Fuzz(func(t *testing.T, doc []byte) {
		b, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		first := resave(t, b.Save)
		again, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reloading a saved bundle: %v", err)
		}
		if second := resave(t, again.Save); !bytes.Equal(first, second) {
			t.Fatalf("save/load/save changed the bytes:\n%s\n%s", first, second)
		}
		mean := make([]float64, 1)
		b.Ensemble.PredictBatch(0, b.Encoder.EncodeIndex(0, nil), 1, mean, nil)
	})
}

// TestCompatibleWithCatchesInPlaceDrift pins the reason CompatibleWith
// compares full parameter definitions: a drifted study that keeps every
// name, cardinality and min/max (so both the name+size check and the
// encoder Spec still match) must be rejected, because mid-range level
// changes shift encoded inputs without changing either.
func TestCompatibleWithCatchesInPlaceDrift(t *testing.T) {
	b, _, _ := trainedBundle(t)
	if err := b.CompatibleWith(testSpace()); err != nil {
		t.Fatalf("bundle incompatible with the space it was built from: %v", err)
	}
	drifted := space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3.5, 4, 5}}, // 3 → 3.5, same card/min/max
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
		{Name: "dep", Kind: space.Cardinal, DependsOn: "a",
			Table: [][]float64{{1, 2}, {2, 4}, {4, 8}, {8, 16}}},
	})
	if drifted.Size() != b.Space.Size() {
		t.Fatal("drifted space must keep the same size for this test to mean anything")
	}
	if err := encoding.NewEncoder(drifted).Matches(b.Encoder.Spec()); err != nil {
		t.Fatalf("drifted space must keep the same encoder spec for this test to mean anything: %v", err)
	}
	if err := b.CompatibleWith(drifted); err == nil {
		t.Fatal("CompatibleWith accepted a space whose levels drifted in place")
	}
	renamed := space.New("other", testSpace().Params)
	if err := b.CompatibleWith(renamed); err == nil {
		t.Fatal("CompatibleWith accepted a differently named space")
	}
}

func TestBundleValidators(t *testing.T) {
	b, _, _ := trainedBundle(t)
	if err := b.ValidateIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := b.ValidateIndex(b.Space.Size()); err == nil {
		t.Fatal("ValidateIndex accepted an out-of-range index")
	}
	if err := b.ValidateIndex(-1); err == nil {
		t.Fatal("ValidateIndex accepted a negative index")
	}
	ok := make([]int, b.Space.NumParams())
	if err := b.ValidateChoices(ok); err != nil {
		t.Fatal(err)
	}
	if err := b.ValidateChoices(ok[:1]); err == nil {
		t.Fatal("ValidateChoices accepted a short vector")
	}
	bad := append([]int(nil), ok...)
	bad[0] = b.Space.Params[0].Card()
	if err := b.ValidateChoices(bad); err == nil {
		t.Fatal("ValidateChoices accepted an out-of-range choice")
	}
}
