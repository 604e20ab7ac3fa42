package bundle

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/stats"
)

// fastModel keeps checkpoint fixtures quick to train.
func fastModel() core.ModelConfig {
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 25
	return cfg
}

// sampleCheckpoint samples and trains two rounds the way the
// exploration loop does and snapshots them by hand, standing in for
// the driver's own snapshots (internal/explore imports this package).
func sampleCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	sp := testSpace()
	cfg := core.ExploreConfig{
		Model:      fastModel(),
		BatchSize:  15,
		MaxSamples: 30,
		Exclude:    []int{0, 1, 2},
		Seed:       7,
	}
	enc := encoding.NewEncoder(sp)
	sel := core.NewBatchSelector(sp, enc, cfg.SeedRNG())
	for _, idx := range cfg.Exclude {
		sel.Reserve(idx)
	}
	var idxs []int
	var inputs, targets [][]float64
	var steps []core.Step
	var ens *core.Ensemble
	for len(idxs) < cfg.MaxSamples {
		for _, idx := range sel.Random(cfg.BatchSize) {
			sel.Reserve(idx)
			idxs = append(idxs, idx)
			inputs = append(inputs, enc.EncodeIndex(idx, nil))
			targets = append(targets, []float64{testTarget(sp, idx)})
		}
		var err error
		if ens, err = core.TrainEnsemble(inputs, targets, cfg.RoundModel(len(idxs))); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, core.Step{
			Samples:  len(idxs),
			Fraction: float64(len(idxs)) / float64(sp.Size()),
			Est:      ens.Estimate(),
		})
	}
	quarantined := -1
	for idx := 0; idx < sp.Size(); idx++ {
		if !sel.IsReserved(idx) {
			quarantined = idx
			break
		}
	}
	return &Checkpoint{
		Space:      sp,
		Encoder:    enc,
		Config:     cfg,
		RNG:        stats.NewRNG(99).State(),
		Indices:    idxs,
		Targets:    targets,
		Steps:      steps,
		Quarantine: []QuarantinedPoint{{Index: quarantined, Attempts: 2, Error: "synthetic failure"}},
		Ensemble:   ens,
		Meta:       Meta{Study: "synth", App: "none", Metric: "IPC", TraceLen: 1000},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint(t)
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Indices, cp.Indices) {
		t.Fatal("sampled indices changed across the round trip")
	}
	if !reflect.DeepEqual(got.Targets, cp.Targets) {
		t.Fatal("targets changed across the round trip")
	}
	if got.RNG != cp.RNG {
		t.Fatal("RNG state changed across the round trip")
	}
	if !reflect.DeepEqual(got.Steps, cp.Steps) {
		t.Fatal("step history changed across the round trip")
	}
	if !reflect.DeepEqual(got.Quarantine, cp.Quarantine) {
		t.Fatal("quarantine list changed across the round trip")
	}
	if !reflect.DeepEqual(got.Config, cp.Config) {
		t.Fatal("config changed across the round trip")
	}
	if got.Meta.TraceLen != cp.Meta.TraceLen {
		t.Fatal("meta changed across the round trip")
	}
	// Ensemble weights must survive bit-identically: JSON float64
	// round-trips are exact in Go, so the serialized forms must match.
	var a, b bytes.Buffer
	if err := cp.Ensemble.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Ensemble.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("ensemble weights changed across the round trip")
	}
}

func TestCheckpointWriteFileAtomicRoundTrip(t *testing.T) {
	cp := sampleCheckpoint(t)
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Indices, cp.Indices) {
		t.Fatal("file round trip changed the sampled set")
	}
	// Overwriting must go through the temp+rename path and leave a
	// loadable file.
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
}

// corrupt saves cp, applies f to the decoded JSON document, re-encodes
// it and tries to load the result.
func corrupt(t *testing.T, cp *Checkpoint, f func(doc map[string]any)) error {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	f(doc)
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(bytes.NewReader(raw))
	return err
}

func TestCheckpointLoadRejectsCorruption(t *testing.T) {
	cp := sampleCheckpoint(t)
	cases := map[string]func(doc map[string]any){
		"future version": func(d map[string]any) { d["version"] = CheckpointVersion + 1 },
		"v1 active-learning run": func(d map[string]any) {
			d["version"] = 1
			d["config"].(map[string]any)["Strategy"] = 1
		},
		"zero rng":         func(d map[string]any) { d["rng"] = []int{0, 0, 0, 0} },
		"truncated target": func(d map[string]any) { d["targets"] = d["targets"].([]any)[:1] },
		"out-of-range sample": func(d map[string]any) {
			idxs := d["indices"].([]any)
			idxs[0] = float64(1 << 30)
		},
		"sampled point also excluded": func(d map[string]any) {
			idxs := d["indices"].([]any)
			idxs[0] = float64(0) // 0 is in the Exclude list
		},
		"quarantined point also sampled": func(d map[string]any) {
			q := d["quarantine"].([]any)
			q[0].(map[string]any)["index"] = d["indices"].([]any)[0]
		},
		"non-finite target": func(d map[string]any) {
			// json.Marshal rejects NaN, so splice the raw token later via
			// a numeric stand-in: an empty vector triggers the same
			// per-point contract check.
			tg := d["targets"].([]any)
			tg[0] = []any{}
		},
		"steps not growing": func(d map[string]any) {
			steps := d["steps"].([]any)
			if len(steps) < 2 {
				s0 := steps[0].(map[string]any)
				dup := map[string]any{}
				for k, v := range s0 {
					dup[k] = v
				}
				steps = append(steps, dup)
			} else {
				steps[1].(map[string]any)["Samples"] = steps[0].(map[string]any)["Samples"]
			}
			d["steps"] = steps
		},
		"rounds without ensemble": func(d map[string]any) { delete(d, "ensemble") },
		"drifted space": func(d map[string]any) {
			// One level of one axis drifts in place (64→96 style): the
			// cardinalities survive but the stored encoding spec no
			// longer matches the rebuilt encoder's ranges.
			params := d["params"].([]any)
			values := params[0].(map[string]any)["Values"].([]any)
			values[len(values)-1] = values[len(values)-1].(float64) * 16
		},
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			err := corrupt(t, cp, f)
			if err == nil {
				t.Fatalf("%s accepted", name)
			}
			// Version 1 carried variance selection in a field this
			// build no longer reads; the refusal must say why.
			if strings.HasPrefix(name, "v1 ") && !strings.Contains(err.Error(), "version 1") {
				t.Fatalf("v1 checkpoint refused without naming its version: %v", err)
			}
		})
	}
	if math.IsNaN(cp.Targets[0][0]) {
		t.Fatal("sanity: test fixture produced NaN targets")
	}
}

// badModelEdits turn a saved checkpoint's stored model config into one
// a resumed run cannot train (ann.New panics on the first two; the
// third would train through a silently linear hidden layer, the fourth
// draw infinite weights and predict NaN); field is
// what LoadCheckpoint's refusal must name. The config precedes the
// nested ensemble, so the first match of old is the config's.
var badModelEdits = []struct{ field, old, new string }{
	{"Momentum", `"Momentum":0.5`, `"Momentum":1.5`},
	{"Hidden[0]", `"Hidden":[16]`, `"Hidden":[-3,16]`},
	{"HiddenAct", `"HiddenAct":0`, `"HiddenAct":9`},
	{"InitRange", `"InitRange":0.01`, `"InitRange":1e308`},
}

func TestCheckpointLoadRejectsBadModel(t *testing.T) {
	saved := resave(t, sampleCheckpoint(t).Save)
	for _, e := range badModelEdits {
		doc := bytes.Replace(saved, []byte(e.old), []byte(e.new), 1)
		if bytes.Equal(doc, saved) {
			t.Fatalf("saved checkpoint holds no %s", e.old)
		}
		if _, err := LoadCheckpoint(bytes.NewReader(doc)); err == nil || !strings.Contains(err.Error(), e.field) {
			t.Errorf("stored model with %s: LoadCheckpoint returned %v, want an error naming %s", e.new, err, e.field)
		}
	}
}

// FuzzLoadCheckpoint: no input panics LoadCheckpoint; an accepted
// checkpoint saves to bytes that load and save again unchanged, and its
// ensemble, when it has one, predicts one encoded design point.
func FuzzLoadCheckpoint(f *testing.F) {
	cp := sampleCheckpoint(f)
	cp.Ensemble = tinyBundle(f).Ensemble // same width, far fewer bytes to mutate
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	f.Add(widenMember1(f, saved))
	f.Add(saved[:len(saved)/2])
	f.Add(bytes.Replace(saved, []byte(`"version":2`), []byte(`"version":3`), 1))
	for _, e := range badModelEdits {
		f.Add(bytes.Replace(saved, []byte(e.old), []byte(e.new), 1))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		c, err := LoadCheckpoint(bytes.NewReader(doc))
		if err != nil {
			return
		}
		first := resave(t, c.Save)
		again, err := LoadCheckpoint(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reloading a saved checkpoint: %v", err)
		}
		if second := resave(t, again.Save); !bytes.Equal(first, second) {
			t.Fatalf("save/load/save changed the bytes:\n%s\n%s", first, second)
		}
		if c.Ensemble != nil {
			mean := make([]float64, 1)
			c.Ensemble.PredictBatch(0, c.Encoder.EncodeIndex(0, nil), 1, mean, nil)
		}
	})
}
