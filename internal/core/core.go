// Package core implements the paper's primary contribution: highly
// accurate, confident predictive models of architectural design spaces
// built from sparse simulation samples (Chapters 2 and 3).
//
// The pieces, mapped to the paper:
//
//   - Ensemble — a k-fold cross-validation ensemble of feed-forward
//     ANNs (Figure 3.3): each member trains on k−2 folds, early-stops on
//     one held-aside fold and is tested on another; predictions average
//     all members; the pooled test-fold percentage errors estimate the
//     model's mean error and its standard deviation over the full
//     design space (§3.2, §5.2).
//   - ExploreConfig, BatchSelector and Step — the parameters, batch
//     draws and round record of the incremental procedure of §3.3
//     (steps 1–8): sample a batch of design points, simulate them, train
//     an ensemble, read the cross-validation error estimate, and repeat
//     until the estimate falls below the architect's threshold. The loop
//     itself is explore.Driver.
//   - AcquireVariance — the active-learning extension sketched in
//     Chapter 7: instead of random batches, pick the candidate points on
//     which the ensemble members disagree most. It is one of the
//     Acquirer's three strategies; hvi and frontier target the
//     predicted Pareto frontier instead.
//   - MetricSet and RangeEvaluator — the ranking axes a full-space
//     sweep reads off one or more ensembles (mean or member variance
//     per output). RangeEvaluator scores design points by flat index,
//     with each member's first layer computed from per-axis product
//     tables and shared prefix sums (ann.RangeNet) instead of encoded
//     rows; its columns are MetricSet.Eval's over EncodeRange, bit for
//     bit. Both share PredictBatch's chunking and its vectorized
//     unscale, exp, mean and variance.
//   - Multi-target support — the multi-task-learning extension of
//     Chapter 7: oracles may return several correlated metrics (IPC plus
//     cache miss and branch mispredict rates); one network with several
//     outputs learns them jointly, sharing hidden-layer weights.
//
// core depends only on the space/encoding/ann/stats substrates; the
// cycle-level simulator is attached through the Oracle interface by the
// caller (see internal/experiments for the simulation-backed oracle).
package core

import (
	"fmt"

	"repro/internal/ann"
)

// Oracle evaluates a batch of design-point indices, returning one
// target vector per index (element 0 is the primary metric, IPC in the
// paper's studies; any further elements are auxiliary metrics for
// multi-task training). Implementations are free to evaluate the batch
// concurrently; results must align with the input order.
type Oracle interface {
	Evaluate(indices []int) ([][]float64, error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(indices []int) ([][]float64, error)

// Evaluate implements Oracle.
func (f OracleFunc) Evaluate(indices []int) ([][]float64, error) { return f(indices) }

// ModelConfig bundles every hyperparameter of the ensemble model.
type ModelConfig struct {
	Folds     int   // cross-validation folds (10 in all paper experiments)
	Hidden    []int // hidden-layer sizes (paper: one layer of 16)
	HiddenAct ann.Activation
	OutputAct ann.Activation

	LearningRate float64
	Momentum     float64
	InitRange    float64

	Train     ann.TrainOpts
	ScalerPad float64 // padding fraction for target minimax scaling
	// Workers bounds the ensemble's concurrency: at most this many
	// goroutines train cross-validation folds and shard batched
	// predictions (0 = GOMAXPROCS; 1 or any negative value = fully
	// sequential). Results are identical for any setting — fold seeds
	// and batch outputs do not depend on scheduling.
	Workers int
	// LogTarget trains on log-transformed targets, making squared error
	// in network space proportional to relative (percentage) error —
	// this repository's default, which handles the simulator's wide IPC
	// dynamic range. The paper instead trains on linear targets and
	// equalizes percentage error through presentation frequency
	// (PaperConfig restores that behaviour exactly).
	LogTarget bool
	Seed      uint64
}

// DefaultModelConfig returns the configuration the repository's
// experiments use: the paper's architecture (10 folds, 16 sigmoid
// hidden units, momentum 0.5, U[-0.01,0.01] init) with an accelerated
// learning-rate schedule (0.25, decaying 0.25 %/epoch) and log-space
// targets so full learning-curve sweeps fit a laptop-class compute
// budget on this simulator's wider-dynamic-range surfaces. See
// PaperConfig for the literal §3.1 hyperparameters.
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		Folds:        10,
		Hidden:       []int{16},
		HiddenAct:    ann.Sigmoid,
		OutputAct:    ann.Linear,
		LearningRate: 0.25,
		Momentum:     0.5,
		InitRange:    0.01,
		Train:        ann.DefaultTrainOpts(),
		ScalerPad:    0.05,
		LogTarget:    true,
	}
}

// PaperConfig returns the hyperparameters exactly as §3.1 states them:
// learning rate 0.001 with no decay, momentum 0.5, one hidden layer of
// 16 units, weights initialized uniformly on [-0.01, +0.01], 10-fold
// cross validation. Training takes correspondingly longer.
func PaperConfig() ModelConfig {
	c := DefaultModelConfig()
	c.LearningRate = 0.001
	c.Train = ann.PaperTrainOpts()
	c.LogTarget = false // linear targets with 1/IPC presentation weighting
	return c
}

// NetConfig returns the configuration of the networks the model trains
// on inputs-wide encodings with outputs targets; TrainEnsemble gives
// each member its own Seed.
func (c ModelConfig) NetConfig(inputs, outputs int) ann.Config {
	return ann.Config{
		Inputs:       inputs,
		Hidden:       c.Hidden,
		Outputs:      outputs,
		HiddenAct:    c.HiddenAct,
		OutputAct:    c.OutputAct,
		LearningRate: c.LearningRate,
		Momentum:     c.Momentum,
		InitRange:    c.InitRange,
	}
}

// Validate reports structural problems. The network's own rules (layer
// sizes, activations, learning rate, momentum) are ann.Config.Validate's,
// checked on the configuration NetConfig implies; the widths are the
// data's and are checked when it arrives.
func (c ModelConfig) Validate() error {
	if c.Folds < 3 {
		return fmt.Errorf("core: need at least 3 folds (train/ES/test), got %d", c.Folds)
	}
	if len(c.Hidden) == 0 {
		return fmt.Errorf("core: need at least one hidden layer")
	}
	if err := c.NetConfig(1, 1).Validate(); err != nil {
		return fmt.Errorf("core: ModelConfig network: %w", err)
	}
	return nil
}
