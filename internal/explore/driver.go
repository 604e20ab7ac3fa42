// Package explore runs the paper's §3.3 select→simulate→train→estimate
// loop, durable and cancellable. It is the repo's one exploration loop:
// CLIs, examples, experiments and the HTTP job API (internal/serve) all
// run a Driver.
//
//   - Oracle evaluation fans each batch out over a worker pool,
//     per-point, with order-preserving reassembly — the cycle-level
//     simulator finally runs in parallel, and a k-core box cuts a
//     simulation-bound round's wall clock by ~k× without changing one
//     bit of the result.
//   - Per-point oracle failures are retried and then quarantined (the
//     point is recorded and never drawn again) instead of aborting a
//     run that may have hours of simulation behind it.
//   - After every completed round the driver can write a versioned
//     bundle.Checkpoint — kill the process anywhere and Resume
//     reproduces the uninterrupted run bit-identically.
//
// Rounds run one after another, as in the paper: a batch is simulated,
// then the ensemble trains on everything recorded, then the next batch
// is chosen. Pipeline{Workers: -1} evaluates one point at a time; every
// other setting must reproduce it bit for bit.
package explore

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
)

// Pipeline bundles the scheduling knobs of the driver. None of them
// affect results — only wall-clock time and durability; the outputs for
// a given (space, oracle, ExploreConfig) are bit-identical for every
// setting, which is what makes the pipeline safe to tune in production.
type Pipeline struct {
	// Workers bounds the oracle fan-out: at most this many design
	// points evaluate concurrently (0 = GOMAXPROCS, negative = one at a
	// time).
	Workers int
	// Retries is how many extra attempts a failing point gets before
	// quarantine (0 = DefaultRetries, negative = none).
	Retries int
	// Sequential is ignored: every round simulates its batch, then
	// trains.
	//
	// Deprecated: the driver runs one sequential loop, so there is no
	// overlap left to disable.
	Sequential bool
	// CheckpointPath, when non-empty, makes the driver atomically write
	// a resumable snapshot there after every completed round.
	CheckpointPath string
	// Meta is provenance recorded into checkpoints (study, app, trace
	// length), so a resume can rebuild the matching oracle.
	Meta bundle.Meta
	// OnStep, when non-nil, observes each completed round — live
	// progress for CLIs and the job API. It runs on the goroutine that
	// called Run or Step.
	OnStep func(core.Step)
}

// Config couples the paper's loop parameters with the pipeline's
// scheduling knobs.
type Config struct {
	core.ExploreConfig
	Pipeline
}

// Driver runs the exploration loop over one design space and oracle.
// Methods must not be called concurrently; the concurrency is inside
// (the oracle fan-out, and fold training in core.TrainEnsemble), not on
// the API.
type Driver struct {
	sp     *space.Space
	enc    *encoding.Encoder
	oracle core.Oracle
	cfg    Config
	sel    *core.BatchSelector
	acq    *core.Acquirer // non-nil iff cfg.Acquire is

	indices []int       // simulated design points, in sampling order
	inputs  [][]float64 // encoded inputs, aligned with indices
	targets [][]float64 // oracle target vectors, aligned with indices
	width   int         // established target-vector width (0 before any)

	ens        *core.Ensemble
	steps      []core.Step
	quarantine []bundle.QuarantinedPoint

	// cpRNG is the selection RNG's state as of the last record(), which
	// is exactly the state a resumed run must restart from: a round
	// cancelled after its draw records nothing, so its draws must stay
	// out of any later checkpoint.
	cpRNG [4]uint64
}

// New constructs a driver over the design space with the given oracle.
func New(sp *space.Space, oracle core.Oracle, cfg Config) (*Driver, error) {
	if oracle == nil {
		return nil, fmt.Errorf("explore: need an oracle")
	}
	if err := cfg.Validate(sp); err != nil {
		return nil, err
	}
	enc := encoding.NewEncoder(sp)
	d := &Driver{
		sp:     sp,
		enc:    enc,
		oracle: oracle,
		cfg:    cfg,
		sel:    core.NewBatchSelector(sp, enc, cfg.SeedRNG()),
	}
	if cfg.Acquire != nil {
		acq, err := core.NewAcquirer(cfg.Acquire)
		if err != nil {
			return nil, err
		}
		d.acq = acq
	}
	for _, idx := range cfg.Exclude {
		d.sel.Reserve(idx)
	}
	d.cpRNG = d.sel.RNG().State()
	return d, nil
}

// Resume rebuilds a driver from a checkpoint: the sampled set, targets,
// round history, quarantine list and — critically — the selection RNG's
// exact state are restored, so the continued run draws the same batches
// the uninterrupted run would have. The loop configuration is adopted
// from the checkpoint; only the pipeline knobs are the caller's, since
// they cannot change results.
func Resume(cp *bundle.Checkpoint, oracle core.Oracle, pipe Pipeline) (*Driver, error) {
	if reflect.DeepEqual(pipe.Meta, bundle.Meta{}) {
		pipe.Meta = cp.Meta
	}
	d, err := New(cp.Space, oracle, Config{ExploreConfig: cp.Config, Pipeline: pipe})
	if err != nil {
		return nil, err
	}
	if err := d.sel.RNG().Restore(cp.RNG); err != nil {
		return nil, fmt.Errorf("explore: resume: %w", err)
	}
	d.cpRNG = cp.RNG
	for i, idx := range cp.Indices {
		d.sel.Reserve(idx)
		d.indices = append(d.indices, idx)
		d.inputs = append(d.inputs, d.enc.EncodeIndex(idx, nil))
		d.targets = append(d.targets, cp.Targets[i])
		d.width = len(cp.Targets[i])
	}
	for _, q := range cp.Quarantine {
		d.sel.Reserve(q.Index)
	}
	d.quarantine = append(d.quarantine, cp.Quarantine...)
	d.steps = append(d.steps, cp.Steps...)
	d.ens = cp.Ensemble
	return d, nil
}

// ResumeFile is Resume over a checkpoint file written by a previous
// run's Pipeline.CheckpointPath.
func ResumeFile(path string, oracle core.Oracle, pipe Pipeline) (*Driver, error) {
	cp, err := bundle.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	return Resume(cp, oracle, pipe)
}

// Samples returns the design-point indices simulated so far.
func (d *Driver) Samples() []int { return append([]int(nil), d.indices...) }

// Steps returns the per-round history.
func (d *Driver) Steps() []core.Step { return append([]core.Step(nil), d.steps...) }

// Ensemble returns the most recently trained ensemble (nil before the
// first round).
func (d *Driver) Ensemble() *core.Ensemble { return d.ens }

// Encoder exposes the input encoding, so callers can encode evaluation
// points consistently.
func (d *Driver) Encoder() *encoding.Encoder { return d.enc }

// Space returns the design space the driver explores.
func (d *Driver) Space() *space.Space { return d.sp }

// Quarantined returns the points the oracle failed on, in failure
// order.
func (d *Driver) Quarantined() []bundle.QuarantinedPoint {
	return append([]bundle.QuarantinedPoint(nil), d.quarantine...)
}

// Checkpoint snapshots the driver at the current round boundary.
func (d *Driver) Checkpoint() *bundle.Checkpoint {
	meta := d.cfg.Meta
	meta.Samples = len(d.indices)
	return &bundle.Checkpoint{
		Space:      d.sp,
		Encoder:    d.enc,
		Config:     d.cfg.ExploreConfig,
		RNG:        d.cpRNG,
		Indices:    append([]int(nil), d.indices...),
		Targets:    append([][]float64(nil), d.targets...),
		Steps:      append([]core.Step(nil), d.steps...),
		Quarantine: append([]bundle.QuarantinedPoint(nil), d.quarantine...),
		Ensemble:   d.ens,
		Meta:       meta,
	}
}

// Run executes rounds of select→simulate→train until the error target
// is met, MaxSamples is reached, the drawable space is exhausted, or ctx
// is cancelled, returning the final ensemble. A cancelled run loses at
// most the in-flight round; everything up to the last completed round is
// in the checkpoint (when configured) and in the driver's own state. No
// oracle call is still running when Run returns.
func (d *Driver) Run(ctx context.Context) (*core.Ensemble, error) {
	for len(d.indices) < d.cfg.MaxSamples {
		// Checked before every round, the first included: a run resumed
		// from the checkpoint of a target-meeting final round must
		// finish immediately, not simulate one batch more than the
		// uninterrupted run did.
		if d.targetMet() {
			break
		}
		batch, err := d.nextBatch()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			break // space (minus exclusions and quarantine) exhausted
		}
		added, err := d.simulate(ctx, batch)
		if err != nil {
			return nil, err
		}
		if added == 0 {
			if d.sel.Remaining() == 0 {
				break // only quarantined points remained; no progress possible
			}
			continue // whole batch quarantined; draw a fresh one
		}
		if err := d.train(); err != nil {
			return nil, err
		}
	}
	if d.ens == nil {
		return nil, fmt.Errorf("explore: driver ran no rounds")
	}
	return d.ens, nil
}

// targetMet reports whether the current ensemble already satisfies the
// configured error target.
func (d *Driver) targetMet() bool {
	return d.ens != nil && d.cfg.TargetMeanErr > 0 && d.ens.Estimate().MeanErr <= d.cfg.TargetMeanErr
}

// Step runs one round growing the pool by up to n points — the
// incremental API the learning-curve experiments script against. Unlike
// Run it trains even when the batch came back smaller than asked
// (quarantine, or fewer than n points left to draw), so every requested
// size gets a round as long as the pool grew.
func (d *Driver) Step(ctx context.Context, n int) error {
	if n > 0 {
		batch, err := d.selectBatch(n)
		if err != nil {
			return err
		}
		added := 0
		if len(batch) > 0 {
			if added, err = d.simulate(ctx, batch); err != nil {
				return err
			}
		}
		// An empty or fully-quarantined batch leaves the pool
		// unchanged; the existing ensemble already models it, and
		// retraining would append a non-growing step that the
		// checkpoint loader rightly rejects.
		if added == 0 && d.ens != nil {
			return nil
		}
	}
	return d.train()
}

// nextBatch sizes the next batch by the remaining budget and selects
// it.
func (d *Driver) nextBatch() ([]int, error) {
	n := d.cfg.BatchSize
	if rem := d.cfg.MaxSamples - len(d.indices); n > rem {
		n = rem
	}
	return d.selectBatch(n)
}

// selectBatch draws up to n points: by acquisition once an ensemble
// exists (the first round is always random), else uniformly at random.
func (d *Driver) selectBatch(n int) ([]int, error) {
	if n <= 0 {
		return nil, nil
	}
	if d.acq != nil && d.ens != nil {
		return d.acq.Select(d.sel, d.ens, d.inputs, n, d.cfg.CandidatePool)
	}
	return d.sel.Random(n), nil
}

// simulate evaluates batch on the oracle fan-out and records the
// outcomes, returning how many points joined the training pool. A
// cancelled round is discarded whole: nothing recorded, no quarantine
// from cancellation-induced failures.
func (d *Driver) simulate(ctx context.Context, batch []int) (added int, err error) {
	results := evalBatch(ctx, d.oracle, batch, d.cfg.Workers, resolveAttempts(d.cfg.Retries))
	if err = ctx.Err(); err != nil {
		return 0, err
	}
	return d.record(batch, results), nil
}

// record folds a round's evaluation outcomes into the training pool:
// successes append in batch order, failures quarantine. It finishes by
// snapshotting the RNG — the state any checkpoint of this round must
// carry.
func (d *Driver) record(batch []int, results []pointResult) int {
	added := 0
	for i, idx := range batch {
		r := results[i]
		if r.err == nil {
			// Cross-batch width drift is not caught by the per-point
			// check inside evalPoint, which has no width context.
			if err := core.CheckTarget(idx, r.target, d.width); err != nil {
				r.err = err
			}
		}
		d.sel.Reserve(idx)
		if r.err != nil {
			d.quarantine = append(d.quarantine, bundle.QuarantinedPoint{
				Index:    idx,
				Attempts: r.attempts,
				Error:    r.err.Error(),
			})
			continue
		}
		d.indices = append(d.indices, idx)
		d.inputs = append(d.inputs, d.enc.EncodeIndex(idx, nil))
		d.targets = append(d.targets, r.target)
		d.width = len(r.target)
		added++
	}
	d.cpRNG = d.sel.RNG().State()
	return added
}

// train fits an ensemble on everything recorded so far and installs
// the round: ensemble, step record, observer, checkpoint.
func (d *Driver) train() error {
	n := len(d.indices)
	start := time.Now() //repolint:allow determinism -- Step.TrainTime is wall-clock training telemetry; it never feeds selection or weights
	ens, err := core.TrainEnsemble(d.inputs, d.targets, d.cfg.RoundModel(n))
	if err != nil {
		return err
	}
	d.ens = ens
	step := core.Step{
		Samples:   n,
		Fraction:  float64(n) / float64(d.sp.Size()),
		Est:       ens.Estimate(),
		TrainTime: time.Since(start), //repolint:allow determinism -- wall-clock training telemetry; excluded from bit-identity comparisons
	}
	d.steps = append(d.steps, step)
	if d.cfg.OnStep != nil {
		d.cfg.OnStep(step)
	}
	if d.cfg.CheckpointPath != "" {
		if err := d.Checkpoint().WriteFile(d.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("explore: %w", err)
		}
	}
	return nil
}
