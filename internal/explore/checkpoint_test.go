package explore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
)

// uninterrupted runs a checkpointing driver to completion and returns
// its final state.
func uninterrupted(t *testing.T, cfg core.ExploreConfig, pipe Pipeline) runState {
	t.Helper()
	sp := synthSpace()
	d, err := New(sp, &synthOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return runState{samples: d.Samples(), steps: stripTimes(d.Steps()), ens: ensembleBytes(t, d.Ensemble())}
}

// TestKillBetweenRoundsResumeBitIdentical kills a run at a round
// boundary (cancel fired from the OnStep observer) and resumes it from
// the checkpoint file: the continued run must reproduce the
// uninterrupted run's sampled set, step history and final ensemble
// weights bit-identically.
func TestKillBetweenRoundsResumeBitIdentical(t *testing.T) {
	cfg := exploreCfg()
	cfg.MaxSamples = 45 // three rounds
	want := uninterrupted(t, cfg, Pipeline{Workers: 2})

	path := filepath.Join(t.TempDir(), "run.checkpoint")
	sp := synthSpace()
	ctx, cancel := context.WithCancel(context.Background())
	pipe := Pipeline{Workers: 2, CheckpointPath: path}
	rounds := 0
	pipe.OnStep = func(core.Step) {
		rounds++
		if rounds == 1 {
			cancel() // "kill" after the first completed round
		}
	}
	d, err := New(sp, &synthOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}

	resumed, err := ResumeFile(path, &synthOracle{sp: synthSpace()}, Pipeline{Workers: 4, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Samples()); got != cfg.BatchSize {
		t.Fatalf("checkpoint carried %d samples, want the first round's %d", got, cfg.BatchSize)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := runState{samples: resumed.Samples(), steps: stripTimes(resumed.Steps()), ens: ensembleBytes(t, resumed.Ensemble())}
	requireSameRun(t, "kill/resume at round boundary", got, want)

	// The checkpoint kept rolling forward during the resumed run: a
	// second resume from the final file must land on the same state
	// with nothing left to do.
	final, err := ResumeFile(path, &synthOracle{sp: synthSpace()}, Pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Samples()) != len(want.samples) {
		t.Fatalf("final checkpoint has %d samples, want %d", len(final.Samples()), len(want.samples))
	}
}

// TestResumeIgnoresRetiredBatchSizeField pins compatibility with
// checkpoints that still carry the retired mini-batch training option
// (every checkpoint written before its removal has "BatchSize":0 in its
// model config): such a file resumes to the same final state as the
// same checkpoint without the key, and as the uninterrupted run.
func TestResumeIgnoresRetiredBatchSizeField(t *testing.T) {
	cfg := exploreCfg()
	cfg.MaxSamples = 45
	want := uninterrupted(t, cfg, Pipeline{Workers: 2})

	dir := t.TempDir()
	path := filepath.Join(dir, "run.checkpoint")
	sp := synthSpace()
	ctx, cancel := context.WithCancel(context.Background())
	pipe := Pipeline{Workers: 2, CheckpointPath: path}
	pipe.OnStep = func(core.Step) { cancel() } // "kill" after the first round
	d, err := New(sp, &synthOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(raw), `"Train":{`, `"Train":{"BatchSize":0,`, 1)
	if legacy == string(raw) {
		t.Fatal("checkpoint has no Train object to inject into")
	}
	legacyPath := filepath.Join(dir, "legacy.checkpoint")
	if err := os.WriteFile(legacyPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, legacyPath} {
		resumed, err := ResumeFile(p, &synthOracle{sp: synthSpace()}, Pipeline{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := runState{samples: resumed.Samples(), steps: stripTimes(resumed.Steps()), ens: ensembleBytes(t, resumed.Ensemble())}
		requireSameRun(t, "resume "+filepath.Base(p), got, want)
	}
}

// TestKillMidRoundResumeBitIdentical kills the run in the middle of a
// round's oracle fan-out — the worst case: partial results in flight,
// none recorded. Resume must replay the interrupted round from the last
// boundary and still converge to the uninterrupted run bit-identically.
func TestKillMidRoundResumeBitIdentical(t *testing.T) {
	cfg := exploreCfg()
	cfg.MaxSamples = 45
	want := uninterrupted(t, cfg, Pipeline{Workers: 2})

	path := filepath.Join(t.TempDir(), "run.checkpoint")
	sp := synthSpace()
	ctx, cancel := context.WithCancel(context.Background())
	inner := &synthOracle{sp: sp}
	killing := core.OracleFunc(func(indices []int) ([][]float64, error) {
		// 15 evaluations = round 1 done; die partway through round
		// 2's fan-out.
		if inner.evaluations() >= 22 {
			cancel()
			return nil, ctx.Err()
		}
		return inner.Evaluate(indices)
	})
	d, err := New(sp, killing, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 2, CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); err == nil {
		t.Fatal("killed run returned no error")
	}

	resumed, err := ResumeFile(path, &synthOracle{sp: synthSpace()}, Pipeline{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := runState{samples: resumed.Samples(), steps: stripTimes(resumed.Steps()), ens: ensembleBytes(t, resumed.Ensemble())}
	requireSameRun(t, "kill/resume mid-round", got, want)
	if q := resumed.Quarantined(); len(q) != 0 {
		t.Fatalf("mid-round kill leaked quarantine entries into the resumed run: %v", q)
	}
}

// TestCheckpointCarriesQuarantine verifies quarantined points survive
// the checkpoint round trip and stay out of the resumed run's draws.
func TestCheckpointCarriesQuarantine(t *testing.T) {
	sp := synthSpace()
	bad := func(idx int) bool { return idx%5 == 0 }
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if bad(idx) {
			return fmt.Errorf("permanent failure")
		}
		return nil
	}}
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	cfg := exploreCfg()
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Retries: -1, CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(d.Quarantined()) == 0 {
		t.Fatal("fixture produced no quarantine")
	}
	cp, err := bundle.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Quarantine) != len(d.Quarantined()) {
		t.Fatalf("checkpoint records %d quarantined points, driver has %d",
			len(cp.Quarantine), len(d.Quarantined()))
	}
	resumed, err := Resume(cp, oracle, Pipeline{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(resumed.Quarantined()), len(cp.Quarantine); got != want {
		t.Fatalf("resume restored %d quarantined points, want %d", got, want)
	}
	// Meta provenance flows checkpoint → resumed driver → new
	// checkpoints by default.
	if cp.Meta.Samples != len(d.Samples()) {
		t.Fatalf("checkpoint meta counts %d samples, driver has %d", cp.Meta.Samples, len(d.Samples()))
	}
}

// TestResumeOfTargetMetRunFinishesImmediately guards the early-stop
// path: finishRound writes the checkpoint before Run's target check, so
// a run that stopped because the error target was met leaves that final
// round's checkpoint on disk. Resuming it must finish without
// simulating another batch.
func TestResumeOfTargetMetRunFinishesImmediately(t *testing.T) {
	cfg := exploreCfg()
	cfg.TargetMeanErr = 1e9 // met after the first round
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	sp := synthSpace()
	d, err := New(sp, &synthOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: Pipeline{CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := runState{samples: d.Samples(), steps: stripTimes(d.Steps()), ens: ensembleBytes(t, d.Ensemble())}

	oracle := &synthOracle{sp: synthSpace()}
	resumed, err := ResumeFile(path, oracle, Pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := oracle.evaluations(); got != 0 {
		t.Fatalf("resuming a finished run simulated %d extra points", got)
	}
	got := runState{samples: resumed.Samples(), steps: stripTimes(resumed.Steps()), ens: ensembleBytes(t, resumed.Ensemble())}
	requireSameRun(t, "resume of finished run", got, want)
}

// TestStepSkipsTrainingOnFullyQuarantinedBatch guards the durable-curve
// path: a round where every point fails must neither retrain on the
// unchanged pool nor write a step history the checkpoint loader rejects
// as non-growing.
func TestStepSkipsTrainingOnFullyQuarantinedBatch(t *testing.T) {
	sp := synthSpace()
	var failAll bool
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if failAll {
			return fmt.Errorf("outage")
		}
		return nil
	}}
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	cfg := exploreCfg()
	cfg.MaxSamples = sp.Size()
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Retries: -1, CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Step(ctx, 15); err != nil {
		t.Fatal(err)
	}
	rounds := len(d.Steps())
	failAll = true
	if err := d.Step(ctx, 15); err != nil {
		t.Fatalf("fully-quarantined step must not fail the study: %v", err)
	}
	if got := len(d.Steps()); got != rounds {
		t.Fatalf("quarantined-only round appended a step (%d -> %d)", rounds, got)
	}
	if got := len(d.Quarantined()); got != 15 {
		t.Fatalf("%d points quarantined, want the whole 15-point batch", got)
	}
	// The last written checkpoint must still load and resume.
	failAll = false
	resumed, err := ResumeFile(path, oracle, Pipeline{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Step(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Samples()); got != 25 {
		t.Fatalf("resumed study holds %d samples, want 25", got)
	}
}
