// Package experiments implements the paper's evaluation (Chapter 5):
// simulation-backed oracles, learning curves (Fig. 5.1), error-estimate
// fidelity (Figs. 5.2/5.3), the accuracy summary (Table 5.1), the
// ANN+SimPoint combination (Figs. 5.4–5.7), training-time measurements
// (Fig. 5.8), and the cross-application and active-learning extensions
// of Chapter 7. Each experiment returns plain row/series data; the
// cmd/repro tool renders them in the paper's format.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/studies"
	"repro/internal/workload"
)

// Metrics selects which simulator statistics an oracle reports as
// network targets.
type Metrics uint8

// Target sets.
const (
	// IPCOnly reports IPC, the paper's primary studies.
	IPCOnly Metrics = iota
	// MultiTask reports IPC plus L2 miss rate and branch mispredict
	// rate, for the Chapter 7 multi-task-learning extension.
	MultiTask
)

// OracleMetrics picks the simulator targets an acquisition config needs
// and their provenance name: objectives or constraints past out0 need
// the multi-task statistics (out1 = L2 miss rate, out2 = branch
// mispredict rate); any other config, nil included, the paper's IPC.
func OracleMetrics(acq *core.AcquireConfig) (Metrics, string) {
	if acq.MaxOutput() > 0 {
		return MultiTask, "IPC,L2MissRate,BrMispredRate"
	}
	return IPCOnly, "IPC"
}

// resultCache memoizes full simulation results process-wide; the
// simulator is deterministic, so caching changes wall-clock time only.
// Keys combine study, app, trace length and design-point index.
var resultCache sync.Map // string -> sim.Result

func cacheKey(study, app string, traceLen, index int) string {
	return fmt.Sprintf("%s/%s/%d/%d", study, app, traceLen, index)
}

// SimOracle evaluates design points by running the cycle-level
// simulator on a fixed application trace. It parallelizes batches
// across every core and counts the simulations it actually performs
// (cache misses), which the reduction-factor experiments use.
type SimOracle struct {
	Study    *studies.Study
	App      string
	TraceLen int
	Metrics  Metrics

	mu   sync.Mutex
	sims int // simulations actually executed (not served from cache)
}

// NewSimOracle builds an oracle for one (study, application) pair.
func NewSimOracle(study *studies.Study, app string, traceLen int, metrics Metrics) *SimOracle {
	return &SimOracle{Study: study, App: app, TraceLen: traceLen, Metrics: metrics}
}

// SimulationsRun returns how many detailed simulations this oracle has
// executed (cache hits excluded).
func (o *SimOracle) SimulationsRun() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sims
}

// Result returns the full simulation result for one design point,
// through the cache.
func (o *SimOracle) Result(index int) (sim.Result, error) {
	key := cacheKey(o.Study.Name, o.App, o.TraceLen, index)
	if v, ok := resultCache.Load(key); ok {
		return v.(sim.Result), nil
	}
	cfg := o.Study.Config(index)
	tr := workload.Get(o.App, o.TraceLen)
	r, err := sim.Run(cfg, tr)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %s/%s point %d: %w", o.Study.Name, o.App, index, err)
	}
	resultCache.Store(key, r)
	o.mu.Lock()
	o.sims++
	o.mu.Unlock()
	return r, nil
}

// targets converts a simulation result into the configured target
// vector.
func (o *SimOracle) targets(r sim.Result) []float64 {
	if o.Metrics == MultiTask {
		return []float64{r.IPC, r.L2MissRate, r.BrMispredRate}
	}
	return []float64{r.IPC}
}

// Evaluate implements core.Oracle, fanning the batch across workers.
func (o *SimOracle) Evaluate(indices []int) ([][]float64, error) {
	results, err := o.Results(indices)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(indices))
	for i, r := range results {
		out[i] = o.targets(r)
	}
	return out, nil
}

// Results returns full simulation results for a batch, in order,
// simulating cache misses on par.For; an error is the first in order.
func (o *SimOracle) Results(indices []int) ([]sim.Result, error) {
	out := make([]sim.Result, len(indices))
	errs := make([]error, len(indices))
	par.For(len(indices), 0, func(i int) {
		out[i], errs[i] = o.Result(indices[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// IPCs is a convenience wrapper returning just the primary metric for a
// batch.
func (o *SimOracle) IPCs(indices []int) ([]float64, error) {
	rs, err := o.Results(indices)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.IPC
	}
	return out, nil
}

// SimPointOracle evaluates design points with SimPoint-estimated IPC:
// it simulates only the representative intervals SimPoint chose for the
// application and combines them with the cluster weights (§5.3). Its
// estimates are noisy relative to full simulation — which is exactly
// the property the ANN+SimPoint experiments study. The noisy estimates
// are cached like full results, under a distinct key space.
type SimPointOracle struct {
	Study *studies.Study
	App   string

	TraceLen int
	Plan     *simpoint.Plan

	mu   sync.Mutex
	sims int
}

// NewSimPointOracle runs SimPoint's offline phase (BBV profiling,
// projection, clustering, representative selection) for the application
// and returns an oracle that estimates IPC from the chosen intervals.
func NewSimPointOracle(study *studies.Study, app string, traceLen int, spCfg simpoint.Config) (*SimPointOracle, error) {
	tr := workload.Get(app, traceLen)
	plan, err := simpoint.BuildPlan(tr, spCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: simpoint plan for %s: %w", app, err)
	}
	return &SimPointOracle{Study: study, App: app, TraceLen: traceLen, Plan: plan}, nil
}

// SimulationsRun returns how many design points this oracle has
// evaluated (each costing only the representative intervals).
func (o *SimPointOracle) SimulationsRun() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sims
}

// Estimate returns the SimPoint IPC estimate for one design point.
func (o *SimPointOracle) Estimate(index int) (float64, error) {
	key := cacheKey("simpoint-"+o.Study.Name, o.App, o.TraceLen, index)
	if v, ok := resultCache.Load(key); ok {
		return v.(sim.Result).IPC, nil
	}
	cfg := o.Study.Config(index)
	tr := workload.Get(o.App, o.TraceLen)
	ipc, err := o.Plan.EstimateIPC(cfg, tr)
	if err != nil {
		return 0, fmt.Errorf("experiments: simpoint estimate %s/%s point %d: %w", o.Study.Name, o.App, index, err)
	}
	resultCache.Store(key, sim.Result{IPC: ipc})
	o.mu.Lock()
	o.sims++
	o.mu.Unlock()
	return ipc, nil
}

// Evaluate implements core.Oracle on par.For; an error is the first in
// batch order.
func (o *SimPointOracle) Evaluate(indices []int) ([][]float64, error) {
	out := make([][]float64, len(indices))
	errs := make([]error, len(indices))
	par.For(len(indices), 0, func(i int) {
		ipc, err := o.Estimate(indices[i])
		out[i], errs[i] = []float64{ipc}, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
