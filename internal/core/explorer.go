package core

import (
	"fmt"
	"time"

	"repro/internal/space"
	"repro/internal/stats"
)

// ExploreConfig controls the incremental exploration loop.
type ExploreConfig struct {
	Model     ModelConfig
	BatchSize int // simulations added per round (50 in §5)
	// MaxSamples bounds the total number of simulations.
	MaxSamples int
	// TargetMeanErr stops the loop once the cross-validation estimate
	// of mean percentage error falls below it (0 disables).
	TargetMeanErr float64
	// Acquire, when non-nil, selects every batch after the first with
	// an acquisition function (see AcquireConfig); without it every
	// batch is uniformly random, the paper's §3.3 procedure. Chapter 7's
	// active learning is &AcquireConfig{Strategy: AcquireVariance}.
	// Checkpoints carry it, so a resumed run replays the same
	// acquisition bit-identically.
	Acquire *AcquireConfig
	// CandidatePool is the number of random unsimulated points scored
	// per acquisition round (0 selects 20× batch size).
	CandidatePool int
	// Exclude lists design points a run must never sample —
	// typically a held-out evaluation set.
	Exclude []int
	Seed    uint64
}

// Validate reports structural problems with the loop configuration
// against the given design space.
func (c ExploreConfig) Validate(sp *space.Space) error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: batch size must be positive")
	}
	if c.MaxSamples < c.BatchSize {
		return fmt.Errorf("core: MaxSamples (%d) below one batch (%d)", c.MaxSamples, c.BatchSize)
	}
	if c.Acquire != nil {
		if err := c.Acquire.Validate(); err != nil {
			return err
		}
	}
	for _, idx := range c.Exclude {
		// Out-of-range indices would sit reserved without ever being
		// drawable, silently shrinking the complement arithmetic that
		// batch and pool sizes are derived from.
		if idx < 0 || idx >= sp.Size() {
			return fmt.Errorf("core: Exclude index %d out of range [0,%d)", idx, sp.Size())
		}
	}
	return nil
}

// SeedRNG returns the selection RNG the configuration induces; every
// batch a run selects is drawn from this stream.
func (c ExploreConfig) SeedRNG() *stats.RNG {
	return stats.NewRNG(c.Seed ^ 0xE1F00D)
}

// RoundModel returns the model configuration for an ensemble trained on
// samples points: a per-round seed derived from the loop seed, so fold
// shuffles differ as data grows but remain reproducible.
func (c ExploreConfig) RoundModel(samples int) ModelConfig {
	m := c.Model
	m.Seed = c.Seed + uint64(samples)
	return m
}

// DefaultExploreConfig mirrors the paper's experimental procedure:
// batches of 50 random simulations, 10-fold CV ensembles, and a 2%
// mean-error stopping threshold.
func DefaultExploreConfig() ExploreConfig {
	return ExploreConfig{
		Model:         DefaultModelConfig(),
		BatchSize:     50,
		MaxSamples:    2000,
		TargetMeanErr: 2.0,
	}
}

// Step records one round of the incremental procedure.
type Step struct {
	Samples   int           // cumulative simulations after this round
	Fraction  float64       // Samples / |design space|
	Est       Estimate      // cross-validation error estimate
	TrainTime time.Duration // wall-clock ensemble training time
}
