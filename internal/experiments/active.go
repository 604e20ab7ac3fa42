package experiments

import (
	"repro/internal/core"
	"repro/internal/studies"
)

// ActivePoint compares random and variance-driven (active) sampling at
// one training budget — the Chapter 7 active-learning extension.
type ActivePoint struct {
	Samples   int
	RandomErr float64 // true mean % error with random batches
	ActiveErr float64 // true mean % error with highest-variance batches
}

// ActiveLearning runs the active-learning ablation on one (study, app)
// pair: two explorers share one evaluation set and per-round budgets;
// one samples randomly (the paper's procedure), the other queries the
// points its current ensemble is least certain about.
func ActiveLearning(study *studies.Study, app string, cfg CurveConfig) ([]ActivePoint, error) {
	// The two arms are independent durable studies; a shared checkpoint
	// file would have the second arm "resume" the first one's run.
	randomCfg := cfg
	activeCfg := cfg
	activeCfg.Acquire = &core.AcquireConfig{Strategy: core.AcquireVariance}
	if cfg.Checkpoint != "" {
		randomCfg.Checkpoint = cfg.Checkpoint + ".random"
		activeCfg.Checkpoint = cfg.Checkpoint + ".active"
	}
	random, err := Curve(study, app, randomCfg)
	if err != nil {
		return nil, err
	}
	active, err := Curve(study, app, activeCfg)
	if err != nil {
		return nil, err
	}
	n := len(random)
	if len(active) < n {
		n = len(active)
	}
	out := make([]ActivePoint, n)
	for i := 0; i < n; i++ {
		out[i] = ActivePoint{
			Samples:   random[i].Samples,
			RandomErr: random[i].TrueMean,
			ActiveErr: active[i].TrueMean,
		}
	}
	return out, nil
}
