package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/ann"
	"repro/internal/encoding"
	"repro/internal/stats"
)

// Estimate is the cross-validation estimate of model accuracy over the
// full design space: the mean and standard deviation of percentage
// error pooled over every member's held-aside test fold (§3.2). These
// are the quantities Figures 5.2/5.3 compare against the true values.
type Estimate struct {
	MeanErr float64 // estimated mean percentage error
	SDErr   float64 // estimated standard deviation of percentage error
	Points  int     // test-fold points the estimate pools
}

// Ensemble is a k-fold cross-validation ensemble of neural networks
// whose prediction is the average of its members (§3.2).
type Ensemble struct {
	nets    []*ann.Network
	scalers []encoding.Scaler // one per output; [0] is the primary target
	est     Estimate
	outputs int
	logT    bool // targets were log-transformed before scaling
	workers int  // goroutine bound for batched prediction
}

// logMin floors target values before the log transform; metrics here
// are non-negative rates, so this only guards exact zeros.
const logMin = 1e-6

// transform maps a raw target into model space.
func (e *Ensemble) transform(v float64) float64 {
	if e.logT {
		return math.Log(math.Max(v, logMin))
	}
	return v
}

// untransform maps a model-space value back to the raw range.
func (e *Ensemble) untransform(v float64) float64 {
	if e.logT {
		return math.Exp(v)
	}
	return v
}

// unscaler composes minimax unscaling with the inverse target transform
// for one output.
type unscaler struct {
	s   encoding.Scaler
	log bool
}

// Unscale implements ann.Unscaler.
func (u unscaler) Unscale(v float64) float64 {
	x := u.s.Unscale(v)
	if u.log {
		return math.Exp(x)
	}
	return x
}

// TrainEnsemble builds and trains a k-fold ensemble on the dataset
// following Figure 3.3: member m trains on folds {0..k-1} minus its
// early-stopping fold (m+k-2 mod k) and test fold (m+k-1 mod k). The
// dataset's X must already be encoded; raws holds the actual
// (de-normalized) target vectors, one per example, with the primary
// metric first.
//
// Fold membership is deterministic given cfg.Seed, so results are
// reproducible.
func TrainEnsemble(x [][]float64, raws [][]float64, cfg ModelConfig) (*Ensemble, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(x)
	if n != len(raws) {
		return nil, fmt.Errorf("core: %d inputs but %d target vectors", n, len(raws))
	}
	if n < cfg.Folds {
		return nil, fmt.Errorf("core: %d examples cannot fill %d folds", n, cfg.Folds)
	}
	outputs := len(raws[0])
	if outputs == 0 {
		return nil, fmt.Errorf("core: empty target vectors")
	}

	ens0 := &Ensemble{logT: cfg.LogTarget}

	// Fit per-output minimax scalers on the (possibly log-transformed)
	// training targets (§3.3).
	scalers := make([]encoding.Scaler, outputs)
	col := make([]float64, n)
	for o := 0; o < outputs; o++ {
		for i := range raws {
			col[i] = ens0.transform(raws[i][o])
		}
		scalers[o] = encoding.FitScaler(col, cfg.ScalerPad)
	}

	// Normalized target matrix.
	y := make([][]float64, n)
	for i := range raws {
		row := make([]float64, outputs)
		for o := 0; o < outputs; o++ {
			row[o] = scalers[o].Scale(ens0.transform(raws[i][o]))
		}
		y[i] = row
	}

	full := &ann.Dataset{X: x, Y: y, Raw: primaryColumn(raws)}

	// Shuffle examples into folds.
	rng := stats.NewRNG(cfg.Seed ^ 0xF01D5)
	perm := rng.Perm(n)
	folds := make([][]int, cfg.Folds)
	for i, p := range perm {
		f := i % cfg.Folds
		folds[f] = append(folds[f], p)
	}

	ens := &Ensemble{
		nets:    make([]*ann.Network, cfg.Folds),
		scalers: scalers,
		outputs: outputs,
		logT:    cfg.LogTarget,
		workers: resolveWorkers(cfg.Workers),
	}
	primaryUn := unscaler{s: scalers[0], log: cfg.LogTarget}

	// Train members concurrently on a worker pool bounded by
	// cfg.Workers; each member owns its network and a deterministic
	// per-fold seed, so the only shared state is the read-only dataset
	// and results do not depend on scheduling.
	type memberResult struct {
		errs []float64 // per-point test-fold percentage errors
		err  error
	}
	results := make([]memberResult, cfg.Folds)
	var wg sync.WaitGroup
	sem := make(chan struct{}, ens.workers)
	for m := 0; m < cfg.Folds; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			k := cfg.Folds
			esFold := (m + k - 2) % k
			testFold := (m + k - 1) % k
			var trainIdx []int
			for f := 0; f < k; f++ {
				if f != esFold && f != testFold {
					trainIdx = append(trainIdx, folds[f]...)
				}
			}
			train := full.Subset(trainIdx)
			es := full.Subset(folds[esFold])
			test := full.Subset(folds[testFold])

			netCfg := cfg.NetConfig(len(x[0]), outputs)
			netCfg.Seed = cfg.Seed + uint64(m)*0x9E37
			net := ann.New(netCfg)
			opts := cfg.Train
			opts.Seed = cfg.Seed + uint64(m)*0x51ED + 1
			if _, err := ann.TrainEarlyStopping(net, train, es, primaryUn, opts); err != nil {
				results[m] = memberResult{err: err}
				return
			}
			ens.nets[m] = net
			results[m] = memberResult{errs: ann.PercentErrors(net, test, primaryUn)}
		}(m)
	}
	wg.Wait()

	var pooled []float64
	for m := range results {
		if results[m].err != nil {
			return nil, fmt.Errorf("core: fold %d: %w", m, results[m].err)
		}
		pooled = append(pooled, results[m].errs...)
	}
	mean, sd := stats.MeanStd(pooled)
	ens.est = Estimate{MeanErr: mean, SDErr: sd, Points: len(pooled)}
	return ens, nil
}

// primaryColumn extracts target 0 from each vector.
func primaryColumn(raws [][]float64) []float64 {
	out := make([]float64, len(raws))
	for i := range raws {
		out[i] = raws[i][0]
	}
	return out
}

// resolveWorkers maps a ModelConfig.Workers setting to a concrete
// goroutine bound: positive values are taken as-is, 0 selects
// GOMAXPROCS, and negative values fall back to fully sequential.
func resolveWorkers(w int) int {
	if w > 0 {
		return w
	}
	if w == 0 {
		if p := runtime.GOMAXPROCS(0); p > 1 {
			return p
		}
	}
	return 1
}

// Workers returns the ensemble's goroutine bound for fold training and
// batched prediction.
func (e *Ensemble) Workers() int { return e.workers }

// SetWorkers adjusts the goroutine bound used by batched prediction
// (0 = GOMAXPROCS). Predictions are identical for any setting.
func (e *Ensemble) SetWorkers(w int) { e.workers = resolveWorkers(w) }

// Members returns the number of networks in the ensemble.
func (e *Ensemble) Members() int { return len(e.nets) }

// Outputs returns the number of target metrics the ensemble predicts.
func (e *Ensemble) Outputs() int { return e.outputs }

// Estimate returns the cross-validation accuracy estimate computed at
// training time.
func (e *Ensemble) Estimate() Estimate { return e.est }

// Predict returns the ensemble's primary-target prediction for an
// encoded design point: the average of all members, de-normalized
// (§3.3 step 8). It is safe to call concurrently on a shared ensemble:
// every member runs through the batched kernel with a pooled per-call
// Scratch, never through the network-owned per-example buffers.
func (e *Ensemble) Predict(x []float64) float64 {
	ps := getPredictScratch(len(e.nets))
	defer predictPool.Put(ps)
	var sum float64
	for _, n := range e.nets {
		out := n.ForwardBatch(x, 1, ps.s)
		sum += e.untransform(e.scalers[0].Unscale(out[0]))
	}
	return sum / float64(len(e.nets))
}

// PredictAll returns the ensemble's prediction for every output metric.
// Like Predict, it is safe for concurrent use on a shared ensemble.
func (e *Ensemble) PredictAll(x []float64) []float64 {
	ps := getPredictScratch(len(e.nets))
	defer predictPool.Put(ps)
	acc := make([]float64, e.outputs)
	for _, n := range e.nets {
		out := n.ForwardBatch(x, 1, ps.s)
		for o := range acc {
			acc[o] += e.untransform(e.scalers[o].Unscale(out[o]))
		}
	}
	for o := range acc {
		acc[o] /= float64(len(e.nets))
	}
	return acc
}

// PredictVariance returns the ensemble's primary prediction together
// with the variance of the member predictions (in de-normalized units),
// the disagreement signal active learning queries by (Chapter 7).
// Safe for concurrent use on a shared ensemble.
func (e *Ensemble) PredictVariance(x []float64) (mean, variance float64) {
	ps := getPredictScratch(len(e.nets))
	defer predictPool.Put(ps)
	preds := ps.preds[:len(e.nets)]
	var sum float64
	for i, n := range e.nets {
		preds[i] = e.untransform(e.scalers[0].Unscale(n.ForwardBatch(x, 1, ps.s)[0]))
		sum += preds[i]
	}
	mean = sum / float64(len(preds))
	var ss float64
	for _, p := range preds {
		d := p - mean
		ss += d * d
	}
	return mean, ss / float64(len(preds))
}
