package experiments

import (
	"fmt"

	"repro/internal/core"
)

// Scale bundles the budget knobs of a full reproduction run. The paper
// itself ran 300K full simulations on a cluster; these presets trade
// evaluation-set size, sweep granularity and trace length against
// wall-clock time while preserving every series' shape.
type Scale struct {
	Name       string
	TraceLen   int // instructions per simulation
	CurveStart int // first training-set size
	CurveStep  int // training-set increment (paper: 50)
	CurveEnd   int // largest training-set size (paper: 2000)
	EvalPoints int // held-out evaluation sample (0 = entire remaining space)
	TimeSizes  []int
}

// Quick is the smoke-test preset: every experiment completes in
// minutes and every series keeps its shape.
func Quick() Scale {
	return Scale{
		Name:       "quick",
		TraceLen:   30000,
		CurveStart: 100,
		CurveStep:  100,
		CurveEnd:   500,
		EvalPoints: 500,
		TimeSizes:  []int{100, 200, 400, 600},
	}
}

// Standard is the default preset: paper-style 50-simulation batches up
// to ~4% of the space, trace length 50K.
func Standard() Scale {
	return Scale{
		Name:       "standard",
		TraceLen:   50000,
		CurveStart: 50,
		CurveStep:  50,
		CurveEnd:   900,
		EvalPoints: 1200,
		TimeSizes:  []int{200, 400, 800, 1200, 1600, 2000},
	}
}

// Full is the paper-faithful preset: batches of 50 to 2000 simulations
// (≈9% of each space) with true error measured over the entire
// remaining design space, as the paper does. Budget accordingly.
func Full() Scale {
	return Scale{
		Name:       "full",
		TraceLen:   50000,
		CurveStart: 50,
		CurveStep:  50,
		CurveEnd:   2000,
		EvalPoints: 0,
		TimeSizes:  []int{200, 400, 800, 1200, 1600, 2000},
	}
}

// ByName resolves a preset name.
func ByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "standard":
		return Standard(), nil
	case "full":
		return Full(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (quick|standard|full)", name)
}

// CurveConfig materializes the preset into a learning-curve config.
func (s Scale) CurveConfig(seed uint64) CurveConfig {
	return CurveConfig{
		TraceLen:   s.TraceLen,
		Start:      s.CurveStart,
		Step:       s.CurveStep,
		End:        s.CurveEnd,
		EvalPoints: s.EvalPoints,
		Model:      core.DefaultModelConfig(),
		Seed:       seed,
	}
}
