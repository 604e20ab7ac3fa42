package experiments

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/simpoint"
	"repro/internal/stats"
	"repro/internal/studies"
)

// CurvePoint is one point of a learning curve: the model trained on
// Samples simulations, with its true error (measured against held-out
// simulations) and the cross-validation estimate produced without any
// extra simulation. These are the series of Figures 5.1–5.5 and the
// cells of Table 5.1.
type CurvePoint struct {
	Samples   int
	Fraction  float64 // Samples / |design space|
	TrueMean  float64 // measured mean percentage error on held-out points
	TrueSD    float64 // measured SD of percentage error
	EstMean   float64 // cross-validation estimate of the mean
	EstSD     float64 // cross-validation estimate of the SD
	TrainTime time.Duration
}

// CurveConfig controls a learning-curve run.
type CurveConfig struct {
	// TraceLen is the dynamic instruction count of the application
	// trace.
	TraceLen int
	// Start, Step, End define the training-set sizes swept: Start,
	// Start+Step, …, up to End inclusive. The paper uses 50..2000 in
	// steps of 50.
	Start, Step, End int
	// EvalPoints is the size of the held-out evaluation sample used to
	// measure true error. The paper evaluates on the entire remaining
	// space; a large random sample estimates the same quantity
	// unbiasedly (the Quick and Standard presets in scale.go do this).
	// Zero selects the full remaining space, the paper-faithful (and
	// very expensive) setting of the Full preset.
	EvalPoints int
	// Model configures the ensemble; zero value selects
	// core.DefaultModelConfig.
	Model core.ModelConfig
	// Noisy selects the SimPoint-estimated oracle for training data
	// (§5.3); true error is still measured against full simulation.
	Noisy bool
	// Acquire selects batches after the first (nil: random, as in the
	// paper; AcquireVariance: the active-learning extension).
	Acquire *core.AcquireConfig
	// Checkpoint, when non-empty, makes the study durable: a resumable
	// snapshot is written there after every round, and a rerun pointing
	// at an existing file picks up where the killed run stopped —
	// paying only ensemble retraining, never repeated simulation, for
	// the rounds already covered.
	Checkpoint string
	Seed       uint64
}

// Curve runs one learning-curve experiment for (study, app): it samples
// an evaluation set, then grows the training set batch by batch,
// training an ensemble at every size and recording true and estimated
// error.
func Curve(study *studies.Study, app string, cfg CurveConfig) ([]CurvePoint, error) {
	if cfg.Start <= 0 || cfg.Step <= 0 || cfg.End < cfg.Start {
		return nil, fmt.Errorf("experiments: invalid sweep %d..%d step %d", cfg.Start, cfg.End, cfg.Step)
	}
	var sizes []int
	for s := cfg.Start; s <= cfg.End; s += cfg.Step {
		sizes = append(sizes, s)
	}
	return CurveAtSizes(study, app, cfg, sizes)
}

// CurveAtSizes runs the learning-curve experiment at an explicit list
// of cumulative training-set sizes (ascending). Table 5.1 uses this to
// hit the paper's ~1%, ~2% and ~4% sample fractions exactly.
func CurveAtSizes(study *studies.Study, app string, cfg CurveConfig, sizes []int) ([]CurvePoint, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("experiments: no training sizes requested")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			return nil, fmt.Errorf("experiments: training sizes must ascend")
		}
	}
	if cfg.Model.Folds == 0 {
		cfg.Model = core.DefaultModelConfig()
	}
	if cfg.TraceLen == 0 {
		cfg.TraceLen = 50000
	}
	maxSize := sizes[len(sizes)-1]

	fullOracle := NewSimOracle(study, app, cfg.TraceLen, IPCOnly)
	var trainOracle core.Oracle = fullOracle
	if cfg.Noisy {
		spo, err := NewSimPointOracle(study, app, cfg.TraceLen, simpoint.DefaultConfig())
		if err != nil {
			return nil, err
		}
		trainOracle = spo
	}

	// Held-out evaluation set: sampled first, excluded from training.
	// The draw is deterministic in cfg.Seed, so a resumed study
	// reconstructs the identical set (its truths come from the
	// simulation cache or are re-simulated; training simulations — the
	// budgeted cost — are never repeated).
	rng := stats.NewRNG(cfg.Seed ^ 0xEA17)
	evalN := cfg.EvalPoints
	if evalN <= 0 || evalN > study.Space.Size()-maxSize {
		evalN = study.Space.Size() - maxSize
	}
	evalIdx := study.Space.Sample(rng, evalN)
	evalTruth, err := fullOracle.IPCs(evalIdx)
	if err != nil {
		return nil, err
	}

	exCfg := core.ExploreConfig{
		Model:      cfg.Model,
		BatchSize:  sizes[0],
		MaxSamples: maxSize,
		Acquire:    cfg.Acquire,
		Seed:       cfg.Seed,
		Exclude:    evalIdx,
	}
	pipe := explore.Pipeline{
		Workers:        cfg.Model.Workers,
		CheckpointPath: cfg.Checkpoint,
		Meta: bundle.Meta{
			Study:    study.Name,
			App:      app,
			Metric:   "IPC",
			TraceLen: cfg.TraceLen,
			// Recorded so a resume can refuse a drifted oracle choice:
			// mixing SimPoint-estimated and fully-simulated targets in
			// one pool would corrupt the curve silently.
			Note: oracleNote(cfg.Noisy),
		},
	}
	drv, err := curveDriver(study, trainOracle, exCfg, pipe)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	var points []CurvePoint
	for _, size := range sizes {
		var est core.Estimate
		var ens *core.Ensemble
		var trainTime time.Duration
		if have := len(drv.Samples()); size <= have {
			// A resumed study already simulated this prefix; retraining
			// it is deterministic (same data, same per-size seed), so
			// the rebuilt ensemble is the original, bit for bit.
			ens, trainTime, err = prefixEnsemble(drv, size)
			if err != nil {
				return nil, err
			}
			est = ens.Estimate()
		} else {
			if err := drv.Step(ctx, size-have); err != nil {
				return nil, err
			}
			ens = drv.Ensemble()
			est = ens.Estimate()
			// Quarantined points can leave the pool short of the
			// requested size; the point below is labeled with the
			// actual pool, and TrainTime only claimed when this round
			// really trained.
			if steps := drv.Steps(); len(steps) > 0 && steps[len(steps)-1].Samples == len(drv.Samples()) {
				trainTime = steps[len(steps)-1].TrainTime
			}
			size = len(drv.Samples())
		}

		mean, sd, _ := ens.TrueError(drv.Encoder(), evalIdx, evalTruth)
		points = append(points, CurvePoint{
			Samples:   size,
			Fraction:  float64(size) / float64(study.Space.Size()),
			TrueMean:  mean,
			TrueSD:    sd,
			EstMean:   est.MeanErr,
			EstSD:     est.SDErr,
			TrainTime: trainTime,
		})
	}
	return points, nil
}

// oracleNote names the training-oracle choice for checkpoint
// provenance.
func oracleNote(noisy bool) string {
	if noisy {
		return "oracle=simpoint"
	}
	return "oracle=full"
}

// curveDriver builds the exploration driver for a study, resuming from
// the configured checkpoint when one exists on disk. A checkpoint left
// behind by a *different* study configuration is refused rather than
// silently adopted: the resumed training pool was excluded against that
// run's evaluation set, so a drifted seed/app/study would leak training
// points into "held-out" truth (or reinterpret indices wholesale).
func curveDriver(study *studies.Study, oracle core.Oracle, exCfg core.ExploreConfig, pipe explore.Pipeline) (*explore.Driver, error) {
	if pipe.CheckpointPath != "" {
		if _, err := os.Stat(pipe.CheckpointPath); err == nil {
			cp, err := bundle.ReadCheckpointFile(pipe.CheckpointPath)
			if err != nil {
				return nil, fmt.Errorf("experiments: resume: %w", err)
			}
			if err := cp.CompatibleWith(study.Space); err != nil {
				return nil, fmt.Errorf("experiments: resume %s: %w", pipe.CheckpointPath, err)
			}
			if cp.Meta.App != pipe.Meta.App {
				return nil, fmt.Errorf("experiments: resume %s: checkpoint is a %s/%s study, not %s/%s",
					pipe.CheckpointPath, cp.Meta.Study, cp.Meta.App, study.Name, pipe.Meta.App)
			}
			if cp.Meta.TraceLen != pipe.Meta.TraceLen || cp.Meta.Note != pipe.Meta.Note {
				return nil, fmt.Errorf("experiments: resume %s: checkpoint simulated %q at %d instructions, this run wants %q at %d — mixed oracles would corrupt the curve; delete the checkpoint or restore the original settings",
					pipe.CheckpointPath, cp.Meta.Note, cp.Meta.TraceLen, pipe.Meta.Note, pipe.Meta.TraceLen)
			}
			if cp.Config.Seed != exCfg.Seed || !reflect.DeepEqual(cp.Config.Acquire, exCfg.Acquire) ||
				!reflect.DeepEqual(cp.Config.Exclude, exCfg.Exclude) {
				return nil, fmt.Errorf("experiments: resume %s: checkpoint was written under a different study configuration (seed/acquisition/evaluation set); delete it or restore the original settings",
					pipe.CheckpointPath)
			}
			drv, err := explore.Resume(cp, oracle, pipe)
			if err != nil {
				return nil, fmt.Errorf("experiments: resume %s: %w", pipe.CheckpointPath, err)
			}
			return drv, nil
		}
	}
	return explore.New(study.Space, oracle, explore.Config{ExploreConfig: exCfg, Pipeline: pipe})
}

// prefixEnsemble rebuilds the ensemble a run trained at an earlier
// size, from the driver's recorded history: training is deterministic
// given the data prefix and the per-size seed, so no simulation — and
// no stored copy of every intermediate model — is needed.
func prefixEnsemble(drv *explore.Driver, size int) (*core.Ensemble, time.Duration, error) {
	cp := drv.Checkpoint()
	if size > len(cp.Indices) {
		return nil, 0, fmt.Errorf("experiments: prefix %d beyond the %d simulated points", size, len(cp.Indices))
	}
	inputs := make([][]float64, size)
	for i := 0; i < size; i++ {
		inputs[i] = drv.Encoder().EncodeIndex(cp.Indices[i], nil)
	}
	start := time.Now() //repolint:allow determinism -- training-time telemetry for CurvePoint.TrainTime; the ensemble does not depend on it
	ens, err := core.TrainEnsemble(inputs, cp.Targets[:size], cp.Config.RoundModel(size))
	return ens, time.Since(start), err //repolint:allow determinism -- training-time telemetry, as above
}
