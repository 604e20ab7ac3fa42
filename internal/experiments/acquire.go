package experiments

import (
	"context"
	"fmt"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/space"
	"repro/internal/studies"
)

// AcquirePoint is one budget step of the acquisition comparison: the
// true hypervolume of the designs one arm has actually simulated so
// far — simulator-measured IPC (maximized) against the design's
// hardware budget (minimized), normalized over the union of every
// arm's designs so the numbers are comparable across arms within a
// run.
type AcquirePoint struct {
	Samples     int
	Hypervolume float64
}

// AcquireCurve is hypervolume-vs-budget for one selection policy:
// "variance" for the Chapter 7 active-learning baseline, or the
// canonical acquisition spec for a Pareto-aware arm.
type AcquireCurve struct {
	Name   string
	Points []AcquirePoint
}

// AcquisitionLearning compares Pareto-aware acquisition against the
// variance-only baseline on one (study, app) pair, on the classic
// performance-vs-area trade-off: out0 is simulated IPC (maximized) and
// out1 is the design's normalized hardware budget (minimized; see
// DesignCost). Every arm explores under the same seed and per-round
// budgets; they differ only in how each round's batch is selected.
// After every round an arm's quality is the hypervolume its simulated
// designs cover in that plane — measured with simulator truth and the
// design's actual cost, not model predictions, so a curve is a pure
// function of (study, app, cfg, specs) and identical on any machine.
//
// cfg follows learning-curve conventions: Start/Step/End are the
// cumulative budgets recorded, Seed is shared across arms, and
// Checkpoint (when set) makes each arm durable under a per-arm suffix.
// EvalPoints and Noisy are not used — truth comes from the training
// simulations themselves.
func AcquisitionLearning(study *studies.Study, app string, cfg CurveConfig, specs []string) ([]AcquireCurve, error) {
	if cfg.Start <= 0 || cfg.Step <= 0 || cfg.End < cfg.Start {
		return nil, fmt.Errorf("experiments: invalid sweep %d..%d step %d", cfg.Start, cfg.End, cfg.Step)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: no acquisition specs to compare")
	}
	if cfg.Model.Folds == 0 {
		cfg.Model = core.DefaultModelConfig()
	}
	if cfg.TraceLen == 0 {
		cfg.TraceLen = 50000
	}

	arms := []*core.AcquireConfig{{Strategy: core.AcquireVariance}} // the baseline
	for _, spec := range specs {
		acq, err := core.ParseAcquireSpec(spec)
		if err != nil {
			return nil, err
		}
		arms = append(arms, acq)
	}

	ctx := context.Background()
	curves := make([]AcquireCurve, len(arms))
	// raw[i] holds arm i's simulated (IPC, hardware budget) rows in
	// evaluation order; cuts[i] the cumulative sample count after each
	// recorded budget.
	raw := make([][][2]float64, len(arms))
	cuts := make([][]int, len(arms))
	for i, a := range arms {
		exCfg := core.ExploreConfig{
			Model:      cfg.Model,
			BatchSize:  cfg.Start,
			MaxSamples: cfg.End,
			Seed:       cfg.Seed,
			Acquire:    a,
			// Every arm scores the same generously-sized candidate draw;
			// Pareto-aware arms live or die by whether frontier-extending
			// candidates appear in the pool at all.
			CandidatePool: candidatePool(study, cfg),
		}
		pipe := pipelineFor(study, app, cfg, fmt.Sprintf("acquire-arm%d", i))
		oracle := &costOracle{sim: NewSimOracle(study, app, cfg.TraceLen, IPCOnly), sp: study.Space}
		drv, err := curveDriver(study, oracle, exCfg, pipe)
		if err != nil {
			return nil, err
		}
		for size := cfg.Start; size <= cfg.End; size += cfg.Step {
			if have := len(drv.Samples()); size > have {
				if err := drv.Step(ctx, size-have); err != nil {
					return nil, err
				}
			}
			cuts[i] = append(cuts[i], len(drv.Samples()))
		}
		for _, row := range drv.Checkpoint().Targets {
			raw[i] = append(raw[i], [2]float64{row[0], row[1]})
		}
		curves[i] = AcquireCurve{Name: a.Spec()}
	}

	// Normalize both axes over the union of every arm's designs, so
	// hypervolumes share one [0,1]² minimize-space box and the 1.1
	// reference point acquisition itself uses.
	lo, hi := [2]float64{}, [2]float64{}
	first := true
	for _, rows := range raw {
		for _, r := range rows {
			for a := 0; a < 2; a++ {
				if first || r[a] < lo[a] {
					lo[a] = r[a]
				}
				if first || r[a] > hi[a] {
					hi[a] = r[a]
				}
			}
			first = false
		}
	}
	norm := func(r [2]float64) []float64 {
		z := make([]float64, 2)
		if span := hi[0] - lo[0]; span > 0 {
			z[0] = (hi[0] - r[0]) / span // IPC: maximize → minimize distance from best
		}
		if span := hi[1] - lo[1]; span > 0 {
			z[1] = (r[1] - lo[1]) / span // hardware budget: minimize as-is
		}
		return z
	}
	ref := []float64{1.1, 1.1}
	for i := range arms {
		pts := make([][]float64, 0, len(raw[i]))
		prev := 0
		for _, cut := range cuts[i] {
			for _, r := range raw[i][prev:cut] {
				pts = append(pts, norm(r))
			}
			prev = cut
			curves[i].Points = append(curves[i].Points, AcquirePoint{
				Samples:     cut,
				Hypervolume: core.Hypervolume(pts, ref),
			})
		}
	}
	return curves, nil
}

// candidatePool sizes the per-round scoring draw: a fixed fraction of
// the design space, bounded so tiny smoke configs and the full studies
// both score a meaningful slice without sweeping everything.
func candidatePool(study *studies.Study, cfg CurveConfig) int {
	pool := study.Space.Size() / 16
	if pool > 2000 {
		pool = 2000
	}
	if floor := 20 * cfg.Step; pool < floor {
		pool = floor
	}
	return pool
}

// pipelineFor builds the per-arm pipeline for an acquisition study,
// suffixing the shared checkpoint path so arms stay durable without
// "resuming" each other.
func pipelineFor(study *studies.Study, app string, cfg CurveConfig, arm string) explore.Pipeline {
	pipe := explore.Pipeline{
		Workers: cfg.Workers,
		Meta: bundle.Meta{
			Study:    study.Name,
			App:      app,
			Metric:   "IPC,HWBudget",
			TraceLen: cfg.TraceLen,
			Note:     "oracle=full",
		},
	}
	if cfg.Checkpoint != "" {
		pipe.CheckpointPath = cfg.Checkpoint + "." + arm
	}
	return pipe
}

// DesignCost is the normalized hardware budget of one design point:
// the mean position of every sizing knob (cardinal and continuous
// parameters) within its value list — 0 for the minimal configuration,
// 1 for the maximal one. Nominal parameters (policies, on/off
// features) carry no monotone notion of "bigger hardware" and are
// excluded. A pure function of the configuration, so the cost axis
// needs no simulation and no machine-dependent measurement.
func DesignCost(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	sum, n := 0.0, 0
	for i := range sp.Params {
		p := &sp.Params[i]
		if p.Kind == space.Nominal || p.Card() < 2 {
			continue
		}
		sum += float64(c[i]) / float64(p.Card()-1)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// costOracle reports [IPC, hardware budget] per design point: the
// simulator's IPC joined with DesignCost. The performance-vs-area
// frontier has a genuine trade-off on every study — the IPC-optimal
// configuration is never the cheapest — unlike pairs of simulator
// statistics, which the biggest caches tend to optimize together.
type costOracle struct {
	sim *SimOracle
	sp  *space.Space
}

func (o *costOracle) Evaluate(indices []int) ([][]float64, error) {
	rows, err := o.sim.Evaluate(indices)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(indices))
	for i, idx := range indices {
		out[i] = []float64{rows[i][0], DesignCost(o.sp, idx)}
	}
	return out, nil
}

// BudgetToReach returns the smallest recorded budget at which a curve's
// hypervolume meets or exceeds target, or -1 if it never does.
func BudgetToReach(points []AcquirePoint, target float64) int {
	for _, p := range points {
		if p.Hypervolume >= target {
			return p.Samples
		}
	}
	return -1
}
