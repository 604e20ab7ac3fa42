// Command dsexplore runs the paper's automated design-space exploration
// (§3.3) on any (study, application) pair from the command line and
// prints the incremental error estimates, stopping at the requested
// accuracy or budget:
//
//	dsexplore -study processor -app mcf -target 1.5 -budget 900
//
// -acquire switches selection to a Pareto-aware acquisition function
// once the first ensemble is trained — e.g. hypervolume improvement
// over IPC (maximized) and L2 miss rate (minimized):
//
//	dsexplore -study memory -app mcf -acquire hvi:max=out0:min=out1
//
// Exploration runs on the driver in internal/explore: each round's
// simulations fan out over -oracle-workers goroutines before the
// ensemble trains, and failing design points are retried then
// quarantined instead of aborting the run. With -checkpoint the run is
// durable — kill it anywhere and
//
//	dsexplore -resume run.checkpoint
//
// finishes it with bit-identical results. After exploration it reports
// the model's predicted optimum and checks it against one confirming
// simulation.
//
// -save writes the trained model as a bundle (space + encoding +
// ensemble + provenance) for cmd/serve; -load skips exploration and
// answers the sweep and sensitivity from a previously saved bundle.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/space"
	"repro/internal/studies"
	"repro/internal/sweep"
)

func main() {
	studyName := flag.String("study", "memory", "memory|processor")
	app := flag.String("app", "mcf", "benchmark name")
	target := flag.Float64("target", 2.0, "estimated-error stopping threshold (%; 0 = run full budget)")
	budget := flag.Int("budget", 1000, "maximum simulations")
	batch := flag.Int("batch", 50, "simulations per round (paper: 50)")
	traceLen := flag.Int("insts", 30000, "instructions per simulation")
	paperCfg := flag.Bool("paper", false, "use the paper's exact ANN hyperparameters (slower training)")
	acquire := flag.String("acquire", "", "acquisition spec (variance = active learning): hvi|frontier|variance with :max=outN/:min=outN/:var=outN objectives and :outN>=v constraints")
	workers := flag.Int("workers", 0, "goroutines for fold training and batched prediction (0 = all cores)")
	oracleWorkers := flag.Int("oracle-workers", 0, "goroutines simulating design points concurrently (0 = all cores)")
	retries := flag.Int("retries", 0, "oracle retries per failing point before quarantine (0 = default, negative = none)")
	ckptPath := flag.String("checkpoint", "", "write a resumable snapshot here after every round")
	resumePath := flag.String("resume", "", "resume a killed run from its checkpoint (study/app/budget come from the file)")
	savePath := flag.String("save", "", "write the trained model bundle to this path (for cmd/serve)")
	loadPath := flag.String("load", "", "load a model bundle instead of exploring (no training simulations)")
	seed := flag.Uint64("seed", 1, "")
	flag.Parse()

	if *savePath != "" && *loadPath != "" {
		fatal(fmt.Errorf("-save and -load are mutually exclusive (a loaded bundle is already saved)"))
	}
	if *loadPath != "" && *resumePath != "" {
		fatal(fmt.Errorf("-load and -resume are mutually exclusive"))
	}

	var (
		study *studies.Study
		ens   *core.Ensemble
		err   error
	)
	appName := *app
	insts := *traceLen // resumed runs adopt the checkpoint's trace length
	sensSeed := *seed  // ... and its seed, for the sensitivity report
	if *loadPath != "" {
		study, err = studies.ByName(*studyName)
		fatal(err)
		// A loaded bundle answers everything without exploring; refuse
		// exploration flags instead of silently ignoring them.
		for _, f := range []string{"acquire", "paper", "budget", "batch", "target", "checkpoint", "oracle-workers", "retries"} {
			if flagWasSet(f) {
				fatal(fmt.Errorf("-%s controls exploration and has no effect with -load", f))
			}
		}
		// The confirming simulation must run the application the model
		// was trained on; resolveBundle adopts the bundle's app unless
		// -app was passed explicitly (cross-app evaluation, warned).
		b, resolvedApp, err := resolveBundle(*loadPath, study.Space, appName, *workers)
		fatal(err)
		appName = resolvedApp
		ens = b.Ensemble
		est := ens.Estimate()
		fmt.Printf("%s study / %s: loaded %s (%d-sim model, estimated %.2f%% ± %.2f%%)\n",
			study.Name, appName, *loadPath, b.Meta.Samples, est.MeanErr, est.SDErr)
	} else {
		var drv *explore.Driver
		pipe := explore.Pipeline{
			Workers:        *oracleWorkers,
			Retries:        *retries,
			CheckpointPath: *ckptPath,
		}
		if *resumePath != "" {
			// The checkpoint is authoritative for everything that shapes
			// results; refuse conflicting flags instead of silently
			// ignoring them.
			for _, f := range []string{"study", "app", "insts", "budget", "batch", "target", "acquire", "paper", "seed"} {
				if flagWasSet(f) {
					fatal(fmt.Errorf("-%s comes from the checkpoint and cannot be overridden with -resume", f))
				}
			}
			cp, err := bundle.ReadCheckpointFile(*resumePath)
			fatal(err)
			if cp.Meta.Study == "" || cp.Meta.App == "" {
				fatal(fmt.Errorf("%s carries no study/app provenance; was it written by dsexplore -checkpoint?", *resumePath))
			}
			study, err = studies.ByName(cp.Meta.Study)
			fatal(err)
			fatal(cp.CompatibleWith(study.Space))
			appName = cp.Meta.App
			insts = cp.Meta.TraceLen
			sensSeed = cp.Config.Seed
			// Scheduling knobs cannot change results, so — unlike the
			// flags above — an explicit -workers is honored on resume
			// (a run checkpointed on a big box may finish on a small
			// one).
			if flagWasSet("workers") {
				cp.Config.Model.Workers = *workers
			}
			if pipe.CheckpointPath == "" {
				pipe.CheckpointPath = *resumePath // keep rolling the same file
			}
			// The checkpoint's acquisition config decides how many target
			// columns the resumed oracle must report — a multi-objective
			// run must not resume against an IPC-only oracle.
			metrics, _ := oracleMetrics(cp.Config.Acquire)
			oracle := experiments.NewSimOracle(study, appName, insts, metrics)
			drv, err = explore.Resume(cp, oracle, pipe)
			fatal(err)
			fmt.Printf("%s study / %s: resumed %s at %d simulations (%d rounds done)\n",
				study.Name, appName, *resumePath, len(drv.Samples()), len(drv.Steps()))
		} else {
			study, err = studies.ByName(*studyName)
			fatal(err)
			cfg := core.ExploreConfig{
				Model:         core.DefaultModelConfig(),
				BatchSize:     *batch,
				MaxSamples:    *budget,
				TargetMeanErr: *target,
				Seed:          *seed,
			}
			if *paperCfg {
				cfg.Model = core.PaperConfig()
			}
			cfg.Model.Workers = *workers
			if *acquire != "" {
				cfg.Acquire, err = core.ParseAcquireSpec(*acquire)
				fatal(err)
			}
			metrics, metricName := oracleMetrics(cfg.Acquire)
			pipe.Meta = bundle.Meta{
				Study:    study.Name,
				App:      appName,
				Metric:   metricName,
				TraceLen: insts,
				Model:    cfg.Model,
			}
			oracle := experiments.NewSimOracle(study, appName, insts, metrics)
			drv, err = explore.New(study.Space, oracle, explore.Config{ExploreConfig: cfg, Pipeline: pipe})
			fatal(err)
			fmt.Printf("%s study / %s: %d-point space, batches of %d, target %.1f%%\n\n",
				study.Name, appName, study.Space.Size(), *batch, *target)
		}

		// Ctrl-C stops cleanly at the in-flight round; with -checkpoint
		// the run is resumable from the last completed one.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		start := time.Now()
		ens, err = drv.Run(ctx)
		if err != nil && ctx.Err() != nil && pipe.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "dsexplore: interrupted; finish with: dsexplore -resume %s\n", pipe.CheckpointPath)
		}
		fatal(err)
		for _, s := range drv.Steps() {
			fmt.Printf("  %4d sims (%5.2f%%): estimated %5.2f%% ± %5.2f%%  (train %v)\n",
				s.Samples, 100*s.Fraction, s.Est.MeanErr, s.Est.SDErr, s.TrainTime.Round(time.Millisecond))
		}
		fmt.Printf("\n%d simulations recorded, %v wall clock\n", len(drv.Samples()), time.Since(start).Round(time.Millisecond))
		if q := drv.Quarantined(); len(q) > 0 {
			fmt.Printf("%d design points quarantined after oracle failures:\n", len(q))
			for _, p := range q {
				fmt.Printf("  point %d (%d attempts): %s\n", p.Index, p.Attempts, p.Error)
			}
		}
		if *savePath != "" {
			meta := pipe.Meta
			if meta.Study == "" { // resumed runs carry meta in the driver's checkpoint
				meta = drv.Checkpoint().Meta
			}
			meta.Samples = len(drv.Samples())
			b, err := bundle.New(study.Space, ens, meta)
			fatal(err)
			fatal(b.WriteFile(*savePath))
			fmt.Printf("saved model bundle to %s (serve it: go run ./cmd/serve %s)\n", *savePath, *savePath)
		}
	}

	oracle := experiments.NewSimOracle(study, appName, insts, experiments.IPCOnly)

	// Predicted optimum over the whole space, verified once: a top-1
	// streaming sweep through the shared engine (internal/sweep) — the
	// same chunked enumeration and reduction cmd/sweep and POST
	// /v1/sweep run, with the batched prediction kernels fanning out
	// under the ensemble's own worker bound.
	set, err := core.NewMetricSet([]core.Metric{{Name: "IPC", Ens: ens}})
	fatal(err)
	res, err := sweep.Run(context.Background(), study.Space, set, sweep.Config{TopK: 1, Workers: 1})
	fatal(err)
	best := res.TopK[0][0]
	truth, err := oracle.IPCs([]int{best.Index})
	fatal(err)
	fmt.Printf("\npredicted optimum (IPC %.4f, simulator %.4f):\n  %s\n",
		best.Values[0], truth[0], study.Space.Describe(best.Index))

	// Model-powered sensitivity ranking: the per-axis sweep that
	// motivates the paper (§2), at the cost of network evaluations
	// instead of simulations.
	fmt.Println("\nmodel-based parameter sensitivity (predicted IPC swing per axis):")
	for _, s := range core.RankedSensitivities(core.Sensitivity(ens, study.Space, 24, sensSeed)) {
		if s.Degenerate {
			fmt.Printf("  %2d. %-22s swing undefined (0/%d valid base points)\n", s.Rank, s.Name, s.Bases)
			continue
		}
		fmt.Printf("  %2d. %-22s mean %6.1f%%  max %6.1f%%  (%d/%d bases)\n",
			s.Rank, s.Name, s.MeanSwing, s.MaxSwing, s.ValidBases, s.Bases)
	}
}

// flagWasSet reports whether the named flag was passed explicitly on
// the command line (flag.Parse must have run), telling a deliberate
// choice apart from a default.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// resolveBundle is the -load sequence: read the bundle, verify it is
// still interpretable under the compiled-in study space, adopt the
// bundle's recorded application unless -app chose one explicitly (a
// cross-workload evaluation, warned on stderr), and apply the worker
// bound. It returns the bundle and the application to simulate.
func resolveBundle(path string, sp *space.Space, app string, workers int) (*bundle.Bundle, string, error) {
	b, err := bundle.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	if err := b.CompatibleWith(sp); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if b.Meta.App != "" && b.Meta.App != app {
		if flagWasSet("app") {
			fmt.Fprintf(os.Stderr, "dsexplore: warning: bundle was trained on %q, evaluating against %q\n", b.Meta.App, app)
		} else {
			app = b.Meta.App
		}
	}
	b.Ensemble.SetWorkers(workers)
	return b, app, nil
}

// oracleMetrics picks the simulator target set an acquisition config
// needs: objectives or constraints past out0 require the multi-task
// statistics (out0 = IPC, out1 = L2 miss rate, out2 = branch
// mispredict rate); everything else keeps the paper's IPC-only oracle.
func oracleMetrics(acq *core.AcquireConfig) (experiments.Metrics, string) {
	if acq.MaxOutput() > 0 {
		return experiments.MultiTask, "IPC,L2MissRate,BrMispredRate"
	}
	return experiments.IPCOnly, "IPC"
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsexplore:", err)
		os.Exit(1)
	}
}
