package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/stats"
	"repro/internal/studies"
)

// TimePoint is one point of Figure 5.8: wall-clock time to train the
// 10-fold ensemble at one training-set size.
type TimePoint struct {
	Samples  int
	Fraction float64
	Train    time.Duration
}

// TrainingTimes reproduces Figure 5.8 for one study: ensemble training
// time as a function of training-set size. Training time depends only
// on the dataset size and network shape, so targets come from the
// simulator for the given app but any single app suffices (the paper
// likewise plots one line per study).
//
// The paper's absolute times (30 s – 4 min on a 2005 cluster) will not
// match a modern machine; the linear shape in training-set size — the
// figure's point, O(H(I+O)·P·D) — is what reproduces.
func TrainingTimes(study *studies.Study, app string, cfg CurveConfig, sizes []int) ([]TimePoint, error) {
	if cfg.Model.Folds == 0 {
		cfg.Model = core.DefaultModelConfig()
	}
	oracle := NewSimOracle(study, app, cfg.TraceLen, IPCOnly)
	rng := stats.NewRNG(cfg.Seed ^ 0x71E5)
	maxN := sizes[len(sizes)-1]
	idx := study.Space.Sample(rng, maxN)
	ipcs, err := oracle.IPCs(idx)
	if err != nil {
		return nil, err
	}
	enc := encoding.NewEncoder(study.Space)
	x := make([][]float64, maxN)
	y := make([][]float64, maxN)
	for i := 0; i < maxN; i++ {
		x[i] = enc.EncodeIndex(idx[i], nil)
		y[i] = []float64{ipcs[i]}
	}

	var out []TimePoint
	for _, n := range sizes {
		start := time.Now() //repolint:allow determinism -- Fig. 5.8 measures training time; no model output depends on it
		if _, err := core.TrainEnsemble(x[:n], y[:n], cfg.Model); err != nil {
			return nil, err
		}
		out = append(out, TimePoint{
			Samples:  n,
			Fraction: float64(n) / float64(study.Space.Size()),
			Train:    time.Since(start), //repolint:allow determinism -- Fig. 5.8's training time, as above
		})
	}
	return out, nil
}
