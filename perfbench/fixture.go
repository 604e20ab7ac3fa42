package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/studies"
	"repro/internal/workload"
)

// The fixture the sweep and serve workloads query is built at set-up by
// the paper's §3.3 loop on the memory study: random batches of 50
// simulations of mcf, a 10-fold ensemble trained after each batch, up
// to a fixed budget, all on one worker. TargetMeanErr is 0, so every
// set-up does the budget's work.
const (
	fixtureName   = "fixture"
	fixtureApp    = "mcf"
	fixtureInsts  = 12000
	fixtureBatch  = 50
	fixtureBudget = 100
	// heldOutPoints are simulated after the timed region to measure the
	// fixture's true error; the exploration may not sample them.
	heldOutPoints = 200
	// setupReps is how often every workload repeats its set-up.
	setupReps = 3
)

// fixture is one set-up's explored, trained and reloaded model.
type fixture struct {
	bundle       *bundle.Bundle
	file         []byte // the saved bundle, to check set-ups agree bit for bit
	samples      []int
	est          core.Estimate
	explore      time.Duration // from creating the explore.Driver to its final ensemble
	calls        int
	cycles       uint64
	insts        uint64
	rounds       int
	trainSamples int
}

// heldOut draws the design points the fixture's true error is measured
// on.
func heldOut(st *studies.Study, seed uint64) []int {
	return stats.NewRNG(seed).Split().Perm(st.Space.Size())[:heldOutPoints]
}

// buildFixture explores with explore.Driver and round-trips the final
// ensemble through a bundle file, as cmd/dsexplore -save and cmd/serve
// would. The oracle calls sim.Run directly: the memoizing
// experiments.SimOracle would turn every set-up after the first into
// cache hits.
func buildFixture(st *studies.Study, seed uint64, exclude []int, dir string, tr *Tracer, parent uint64) (*fixture, error) {
	g := tr.Begin("workload.gen", parent)
	trace := workload.Get(fixtureApp, fixtureInsts)
	tr.End(g)

	fx := &fixture{}
	root := tr.Begin("explore", parent)
	start := time.Now()
	var mu sync.Mutex
	oracle := core.OracleFunc(func(indices []int) ([][]float64, error) {
		out := make([][]float64, len(indices))
		for i, idx := range indices {
			s := tr.Begin("sim", root.id)
			r, err := sim.Run(st.Config(idx), trace)
			tr.End(s)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			fx.calls++
			fx.cycles += r.Cycles
			fx.insts += r.Insts
			mu.Unlock()
			out[i] = []float64{r.IPC}
		}
		return out, nil
	})
	cfg := core.ExploreConfig{
		Model:      core.DefaultModelConfig(),
		BatchSize:  fixtureBatch,
		MaxSamples: fixtureBudget,
		Exclude:    exclude,
		Seed:       seed,
	}
	cfg.Model.Workers = 1
	pipe := explore.Pipeline{
		Workers:    1,
		Sequential: true,
		OnStep: func(s core.Step) {
			end := time.Now()
			tr.Record("train", root.id, end.Add(-s.TrainTime), end)
			fx.rounds++
			fx.trainSamples += s.Samples
		},
	}
	drv, err := explore.New(st.Space, oracle, explore.Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		return nil, err
	}
	ens, err := drv.Run(context.Background())
	if err != nil {
		return nil, err
	}
	fx.explore = time.Since(start)
	tr.End(root)
	if q := drv.Quarantined(); len(q) > 0 {
		return nil, fmt.Errorf("%d design points quarantined, first: %s", len(q), q[0].Error)
	}
	fx.samples = drv.Samples()
	fx.est = ens.Estimate()

	b, err := bundle.New(st.Space, ens, bundle.Meta{
		Study: st.Name, App: fixtureApp, Metric: "IPC", TraceLen: fixtureInsts, Model: cfg.Model,
	})
	if err != nil {
		return nil, err
	}
	io := tr.Begin("bundle", parent)
	path := filepath.Join(dir, fixtureName+".bundle")
	if err := b.WriteFile(path); err != nil {
		return nil, err
	}
	fx.bundle, err = bundle.ReadFile(path)
	tr.End(io)
	if err != nil {
		return nil, err
	}
	fx.bundle.Ensemble.SetWorkers(1)
	fx.file, err = os.ReadFile(path)
	return fx, err
}

// fixtureReport checks that every set-up built the same fixture,
// measures the fixture's true error on the held-out points (after the
// timed region), and with tracing on reports the set-up's layers:
// trace generation, simulation, training and the exploration loop.
func fixtureReport(rc runConfig, rep *report, st *studies.Study, fxs []*fixture, held []int) error {
	first := fxs[0]
	var explores []float64
	for k, fx := range fxs {
		explores = append(explores, fx.explore.Seconds())
		if fx.calls != fixtureBudget {
			rep.problem("set-up %d ran %d simulations, want the budget %d", k, fx.calls, fixtureBudget)
		}
		if !bytes.Equal(fx.file, first.file) || !slices.Equal(fx.samples, first.samples) ||
			fx.cycles != first.cycles || !reflect.DeepEqual(fx.est, first.est) {
			rep.problem("set-up %d built a different fixture than set-up 0: bundle, samples, simulated cycles or CV estimate changed", k)
		}
	}
	rep.also("explore_s", "s", median(explores), len(explores))

	trace := workload.Get(fixtureApp, fixtureInsts)
	truth := make([]float64, len(held))
	for i, idx := range held {
		r, err := sim.Run(st.Config(idx), trace)
		if err != nil {
			return fmt.Errorf("held-out point %d: %w", idx, err)
		}
		truth[i] = r.IPC
	}
	trueErr, _, _ := first.bundle.Ensemble.TrueError(first.bundle.Encoder, held, truth)
	rep.also("true_err_pct", "%", trueErr, len(held))
	rep.also("cv_err_pct", "%", first.est.MeanErr, first.est.Points)
	rep.line("true_err_pct: the fixture's mean error on %d held-out points against the simulator, which is unvalidated against hardware", len(held))
	rep.set("core.true_err_pct", trueErr, len(held))
	rep.set("core.cv_err_pct", first.est.MeanErr, first.est.Points)
	if rc.tr == nil {
		return nil
	}

	spans := rc.tr.Spans()
	totals := layerTotals(spans)
	var simS, trainS, otherS []float64
	var simBusy time.Duration
	gen := -1.0
	for _, s := range spans {
		if s.Name != "setup" {
			continue
		}
		l := totals[s.ID]
		if gen < 0 {
			gen = millis(l["workload.gen"]) // later set-ups hit workload.Get's memo
		}
		simS = append(simS, l["sim"].Seconds())
		trainS = append(trainS, l["train"].Seconds())
		otherS = append(otherS, l["explore"].Seconds())
		simBusy += l["sim"]
	}
	n := len(simS)
	rep.set("workload.gen_ms", gen, 1)
	rep.set("sim.calls", float64(first.calls), n)
	rep.set("sim.busy_s", median(simS), n)
	rep.set("sim.insts_per_s", float64(first.insts)*float64(n)/simBusy.Seconds(), n)
	rep.set("sim.cycles", float64(first.cycles), n)
	rep.set("train.rounds", float64(first.rounds), n)
	rep.set("train.samples", float64(first.trainSamples), n)
	rep.set("train.busy_s", median(trainS), n)
	rep.set("explore.other_s", median(otherS), n)
	rep.line("set-up accounting: sim %.4f + train %.4f + other %.4f = %.4f s; exploration %.4f s (median of %d)",
		median(simS), median(trainS), median(otherS), median(simS)+median(trainS)+median(otherS), median(explores), n)
	return nil
}
