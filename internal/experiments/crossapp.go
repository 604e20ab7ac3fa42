package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/stats"
	"repro/internal/studies"
)

// CrossAppResult compares, for one application, a single cross-
// application model (application identity as a one-hot input, trained
// on all applications' samples pooled) against a per-application model
// trained on the same per-application budget — the Chapter 7
// "cross-application predictive modeling" extension.
type CrossAppResult struct {
	App      string
	SoloErr  float64 // per-app model, perApp training samples
	CrossErr float64 // shared model, perApp samples per app (8× data, 1 model)
}

// CrossApp runs the cross-application experiment on one study.
func CrossApp(study *studies.Study, apps []string, perApp, evalN, traceLen int, model core.ModelConfig, seed uint64) ([]CrossAppResult, error) {
	if model.Folds == 0 {
		model = core.DefaultModelConfig()
	}
	enc := encoding.NewEncoder(study.Space)
	width := enc.Width() + len(apps) // one-hot application identity

	rng := stats.NewRNG(seed ^ 0xCA99)
	type appData struct {
		trainIdx, evalIdx []int
		trainIPC, evalIPC []float64
	}
	data := make([]appData, len(apps))
	for a, app := range apps {
		oracle := NewSimOracle(study, app, traceLen, IPCOnly)
		all := study.Space.Sample(rng.Split(), perApp+evalN)
		d := appData{trainIdx: all[:perApp], evalIdx: all[perApp:]}
		var err error
		if d.trainIPC, err = oracle.IPCs(d.trainIdx); err != nil {
			return nil, err
		}
		if d.evalIPC, err = oracle.IPCs(d.evalIdx); err != nil {
			return nil, err
		}
		data[a] = d
	}

	encode := func(appID, idx int) []float64 {
		x := make([]float64, width)
		enc.EncodeIndex(idx, x[:enc.Width()])
		x[enc.Width()+appID] = 1
		return x
	}

	// One pooled model over all applications.
	var px [][]float64
	var py [][]float64
	for a := range apps {
		for i, idx := range data[a].trainIdx {
			px = append(px, encode(a, idx))
			py = append(py, []float64{data[a].trainIPC[i]})
		}
	}
	pooledCfg := model
	pooledCfg.Seed = seed
	pooled, err := core.TrainEnsemble(px, py, pooledCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: cross-app pooled model: %w", err)
	}

	results := make([]CrossAppResult, len(apps))
	for a, app := range apps {
		// Per-application model on the same per-app budget.
		sx := make([][]float64, perApp)
		sy := make([][]float64, perApp)
		for i, idx := range data[a].trainIdx {
			sx[i] = enc.EncodeIndex(idx, nil)
			sy[i] = []float64{data[a].trainIPC[i]}
		}
		soloCfg := model
		soloCfg.Seed = seed + uint64(a) + 1
		solo, err := core.TrainEnsemble(sx, sy, soloCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: cross-app solo model (%s): %w", app, err)
		}

		// Score the whole evaluation set through both models with one
		// batched prediction each (the pooled model's inputs carry the
		// app one-hot, so its matrix is built by hand).
		nEval := len(data[a].evalIdx)
		crossX := make([]float64, nEval*width)
		for i, idx := range data[a].evalIdx {
			row := crossX[i*width : (i+1)*width]
			enc.EncodeIndex(idx, row[:enc.Width()])
			row[enc.Width()+a] = 1
		}
		soloPred := solo.PredictIndices(enc, data[a].evalIdx)
		crossPred := make([]float64, nEval)
		pooled.PredictBatch(0, crossX, nEval, crossPred, nil)
		var soloErrs, crossErrs []float64
		for i := range data[a].evalIdx {
			truth := data[a].evalIPC[i]
			if truth == 0 {
				continue
			}
			soloErrs = append(soloErrs, math.Abs(soloPred[i]-truth)/truth*100)
			crossErrs = append(crossErrs, math.Abs(crossPred[i]-truth)/truth*100)
		}
		results[a] = CrossAppResult{
			App:      app,
			SoloErr:  stats.Mean(soloErrs),
			CrossErr: stats.Mean(crossErrs),
		}
	}
	return results, nil
}
