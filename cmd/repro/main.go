// Command repro regenerates every table and figure of the paper's
// evaluation (Chapter 5) from this repository's substrates:
//
//	repro -exp list                 # what can be reproduced
//	repro -exp all -scale quick     # everything, smoke-test budget
//	repro -exp table5.1 -study processor
//	repro -exp fig5.1 -apps mesa,mcf
//	repro -exp fig5.4 -scale standard
//
// Scales: quick (minutes), standard (paper-style batches, the default),
// full (paper-faithful sweep incl. full-space evaluation; budget
// accordingly). Output is the paper's rows/series plus ASCII renderings
// of each figure. See EXPERIMENTS.md for recorded paper-vs-measured
// comparisons.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bundle"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/pb"
	"repro/internal/stats"
	"repro/internal/studies"
	"repro/internal/sweep"
	"repro/internal/textplot"
)

func main() {
	exp := flag.String("exp", "list", "experiment: list|all|spaces|table5.1|fig5.1|fig5.2|fig5.4|fig5.5|fig5.6|fig5.7|fig5.8|pb|crossapp|active|acquire|model")
	scaleName := flag.String("scale", "quick", "budget preset: quick|standard|full")
	studyName := flag.String("study", "", "restrict to one study: memory|processor")
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: paper's choice per experiment)")
	workers := flag.Int("workers", 0, "goroutines for fold training and batched prediction (0 = all cores)")
	savePath := flag.String("save", "", "with -exp model: write the trained model bundle to this path (for cmd/serve)")
	loadPath := flag.String("load", "", "with -exp model: evaluate a saved bundle against fresh simulations")
	seed := flag.Uint64("seed", 42, "experiment seed")
	flag.Parse()

	scale, err := experiments.ByName(*scaleName)
	fatal(err)

	r := &runner{scale: scale, seed: *seed, workers: *workers}
	if *appsFlag != "" {
		r.apps = strings.Split(*appsFlag, ",")
	}
	if *studyName != "" {
		st, err := studies.ByName(*studyName)
		fatal(err)
		r.studies = []*studies.Study{st}
	} else {
		r.studies = studies.All()
	}

	start := time.Now()
	switch *exp {
	case "list":
		r.list()
	case "spaces":
		r.spaces()
	case "table5.1":
		r.table51()
	case "fig5.1", "fig5.2", "fig5.3", "figA.1", "figA.2", "figA.3":
		r.learningCurves(false)
	case "fig5.4", "fig5.5":
		r.learningCurves(true)
	case "fig5.6", "fig5.7":
		r.reductions()
	case "fig5.8":
		r.trainingTimes()
	case "pb":
		r.pbScreen()
	case "crossapp":
		r.crossApp()
	case "active":
		r.active()
	case "acquire":
		r.acquire()
	case "model":
		r.model(*savePath, *loadPath)
	case "all":
		r.spaces()
		r.table51()
		r.learningCurves(false)
		r.learningCurves(true)
		r.reductions()
		r.trainingTimes()
		r.pbScreen()
		r.crossApp()
		r.active()
		r.acquire()
	default:
		fatal(fmt.Errorf("unknown experiment %q (try -exp list)", *exp))
	}
	fmt.Printf("\n[%s scale, %v total]\n", scale.Name, time.Since(start).Round(time.Second))
}

type runner struct {
	scale   experiments.Scale
	seed    uint64
	workers int
	studies []*studies.Study
	apps    []string
}

// curveConfig materializes the scale preset with the runner's worker
// bound threaded into the model.
func (r *runner) curveConfig() experiments.CurveConfig {
	cfg := r.scale.CurveConfig(r.seed)
	cfg.Model.Workers = r.workers
	return cfg
}

func (r *runner) appsFor(def []string) []string {
	if r.apps != nil {
		return r.apps
	}
	return def
}

func (r *runner) list() {
	fmt.Print(`experiments:
  spaces     Tables 4.1/4.2 — design-space definitions and sizes
  table5.1   Table 5.1      — true & estimated mean/SD error at ~1/2/4% samples
  fig5.1     Figs 5.1, A.1  — learning curves (mean ± SD of % error)
  fig5.2     Figs 5.2/5.3, A.2/A.3 — estimated vs true error curves
  fig5.4     Fig 5.4        — ANN+SimPoint learning curves
  fig5.5     Fig 5.5        — ANN+SimPoint estimated vs true
  fig5.6     Fig 5.6        — instruction-reduction factors (combined)
  fig5.7     Fig 5.7        — SimPoint vs ANN contribution split
  fig5.8     Fig 5.8        — ensemble training time vs training-set size
  pb         §4 methodology — Plackett-Burman parameter ranking
  crossapp   Ch. 7 ext.     — cross-application model vs per-app models
  active     Ch. 7 ext.     — active learning vs random sampling
  acquire    Ch. 7 ext.     — Pareto-aware acquisition vs variance-only (hypervolume vs budget)
  model      train once (-save bundle) / verify a saved bundle (-load)
  all        everything above (except model, which needs -save or -load)
`)
}

func (r *runner) spaces() {
	fmt.Println("== Tables 4.1 / 4.2: design spaces ==")
	for _, st := range r.studies {
		sp := st.Space
		fmt.Printf("\n%s study: %d points/app, %d variable parameters\n", st.Name, sp.Size(), sp.NumParams())
		for i := range sp.Params {
			p := &sp.Params[i]
			fmt.Printf("  %-22s %-10s %d settings\n", p.Name, p.Kind, p.Card())
		}
		fmt.Printf("  total simulations for all 8 benchmarks: %d\n", sp.Size()*len(studies.PaperApps()))
	}
}

func (r *runner) table51() {
	fmt.Println("== Table 5.1: accuracy summary ==")
	cfg := r.curveConfig()
	for _, st := range r.studies {
		apps := r.appsFor(studies.PaperApps())
		rows, err := experiments.Table51(st, apps, cfg)
		fatal(err)
		fmt.Printf("\n%s study (trace %d instrs, eval %d points)\n", st.Name, cfg.TraceLen, cfg.EvalPoints)
		fmt.Printf("%-8s", "")
		for _, f := range experiments.Table51Fractions {
			fmt.Printf(" | %16s sample", fmt.Sprintf("%.0f%%", f*100))
		}
		fmt.Println()
		fmt.Printf("%-8s", "app")
		for range experiments.Table51Fractions {
			fmt.Printf(" | %5s %5s %5s %5s", "true", "est", "tSD", "eSD")
		}
		fmt.Println()
		for _, row := range rows {
			fmt.Printf("%-8s", row.App)
			for _, c := range row.Cells {
				fmt.Printf(" | %5.2f %5.2f %5.2f %5.2f", c.TrueMean, c.EstMean, c.TrueSD, c.EstSD)
			}
			fmt.Println()
		}
	}
}

func (r *runner) learningCurves(noisy bool) {
	label := "Figs 5.1–5.3 (+A.1–A.3): learning curves and error estimates"
	defApps := studies.PaperApps()
	studiesToRun := r.studies
	if noisy {
		label = "Figs 5.4/5.5: ANN+SimPoint learning curves"
		defApps = studies.SimPointApps()
		// The paper's SimPoint combination uses the processor study.
		studiesToRun = []*studies.Study{studies.Processor()}
		if len(r.studies) == 1 {
			studiesToRun = r.studies
		}
	}
	fmt.Printf("== %s ==\n", label)
	cfg := r.curveConfig()
	cfg.Noisy = noisy
	for _, st := range studiesToRun {
		for _, app := range r.appsFor(defApps) {
			points, err := experiments.Curve(st, app, cfg)
			fatal(err)
			title := fmt.Sprintf("%s (%s%s)", strings.ToUpper(app), st.Name, map[bool]string{true: "/ANN+SimPoint", false: ""}[noisy])
			fmt.Printf("\n%-34s %8s %8s %8s %8s %8s\n", title, "sample%", "trueMean", "estMean", "trueSD", "estSD")
			var xs, tm, em, ts, es []float64
			for _, p := range points {
				fmt.Printf("%-34s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
					"", p.Fraction*100, p.TrueMean, p.EstMean, p.TrueSD, p.EstSD)
				xs = append(xs, p.Fraction*100)
				tm = append(tm, p.TrueMean)
				em = append(em, p.EstMean)
				ts = append(ts, p.TrueSD)
				es = append(es, p.EstSD)
			}
			fmt.Println()
			fmt.Print(textplot.Plot(title+" — % error vs % of space sampled", 56, 10,
				textplot.Series{Name: "true mean", Marker: 'M', X: xs, Y: tm},
				textplot.Series{Name: "est mean", Marker: 'm', X: xs, Y: em},
				textplot.Series{Name: "true SD", Marker: 'S', X: xs, Y: ts},
				textplot.Series{Name: "est SD", Marker: 's', X: xs, Y: es},
			))
		}
	}
}

func (r *runner) reductions() {
	fmt.Println("== Figs 5.6/5.7: reductions in simulated instructions ==")
	cfg := r.curveConfig()
	st := studies.Processor()
	if len(r.studies) == 1 {
		st = r.studies[0]
	}
	rows, err := experiments.Reductions(st, r.appsFor(studies.SimPointApps()), cfg)
	fatal(err)
	fmt.Printf("\n%-8s %10s %12s %12s %14s\n", "app", "error%", "ANN×", "SimPoint×", "ANN+SimPoint×")
	for _, row := range rows {
		fmt.Printf("%-8s %9.2f%% %11.0fx %11.1fx %13.0fx\n",
			row.App, row.ErrorPct, row.ANNFactor, row.SimPointFactor, row.CombinedFactor)
	}
}

func (r *runner) trainingTimes() {
	fmt.Println("== Fig 5.8: ensemble training times ==")
	cfg := r.curveConfig()
	var series []textplot.Series
	markers := []byte{'P', 'M'}
	for i, st := range r.studies {
		points, err := experiments.TrainingTimes(st, "mesa", cfg, r.scale.TimeSizes)
		fatal(err)
		fmt.Printf("\n%s study:\n", st.Name)
		var xs, ys []float64
		for _, p := range points {
			fmt.Printf("  %5d samples (%5.2f%% of space): %8.2fs\n", p.Samples, p.Fraction*100, p.Train.Seconds())
			xs = append(xs, p.Fraction*100)
			ys = append(ys, p.Train.Seconds())
		}
		series = append(series, textplot.Series{Name: st.Name, Marker: markers[i%2], X: xs, Y: ys})
	}
	fmt.Println()
	fmt.Print(textplot.Plot("training time (s) vs % of space sampled", 56, 10, series...))
}

func (r *runner) pbScreen() {
	fmt.Println("== §4 methodology: Plackett-Burman parameter ranking ==")
	for _, st := range r.studies {
		for _, app := range r.appsFor([]string{"mcf", "gzip"}) {
			effects, err := experiments.PBScreen(st, app, r.scale.TraceLen)
			fatal(err)
			fmt.Printf("\n%s study / %s:\n", st.Name, app)
			for _, e := range pb.Ranked(effects) {
				if e.Name == "" {
					continue // unused design column
				}
				fmt.Printf("  %2d. %-22s effect %+.3f\n", e.AbsRank, e.Name, e.Effect)
			}
		}
	}
}

func (r *runner) crossApp() {
	fmt.Println("== Chapter 7 extension: cross-application modeling ==")
	st := studies.Processor()
	if len(r.studies) == 1 {
		st = r.studies[0]
	}
	perApp := r.scale.CurveEnd / 4
	model := experiments.DefaultModel()
	model.Workers = r.workers
	results, err := experiments.CrossApp(st, r.appsFor(studies.PaperApps()), perApp, r.scale.EvalPoints/2+100, r.scale.TraceLen, model, r.seed)
	fatal(err)
	fmt.Printf("\n%s study, %d samples/app:\n", st.Name, perApp)
	fmt.Printf("%-8s %12s %12s\n", "app", "solo err%", "pooled err%")
	for _, res := range results {
		fmt.Printf("%-8s %11.2f%% %11.2f%%\n", res.App, res.SoloErr, res.CrossErr)
	}
}

// model is the "train once, query forever" entry point: -save trains
// one ensemble on the first configured (study, app) pair at the scale's
// budget and writes it as a serveable bundle; -load reads a bundle back
// and measures its true error against fresh held-out simulations.
func (r *runner) model(save, load string) {
	if (save == "") == (load == "") {
		fatal(fmt.Errorf("-exp model needs exactly one of -save <path> or -load <path>"))
	}
	st := r.studies[0]
	app := r.appsFor([]string{"mcf"})[0]
	cfg := r.curveConfig()

	if load != "" {
		b, resolvedApp, err := cliutil.ResolveBundle("repro", load, st.Space, "apps", app, r.workers)
		fatal(err)
		app = resolvedApp
		est := b.Ensemble.Estimate()
		fmt.Printf("== bundle %s ==\n", load)
		fmt.Printf("%s study / %s: %d members, %d sims behind it, estimated %.2f%% ± %.2f%%\n",
			st.Name, app, b.Ensemble.Members(), b.Meta.Samples, est.MeanErr, est.SDErr)

		oracle := experiments.NewSimOracle(st, app, cfg.TraceLen, experiments.IPCOnly)
		rng := stats.NewRNG(r.seed ^ 0xB0D1E)
		evalIdx := st.Space.Sample(rng, cfg.EvalPoints)
		truth, err := oracle.IPCs(evalIdx)
		fatal(err)
		m, sd, used := b.Ensemble.TrueError(b.Encoder, evalIdx, truth)
		fmt.Printf("measured against %d fresh simulations: true %.2f%% ± %.2f%%\n", used, m, sd)
		r.sweepReport(st, b.Ensemble)
		return
	}

	fmt.Printf("== training %s / %s model (%d sims, batches of %d) ==\n", st.Name, app, cfg.End, cfg.Step)
	oracle := experiments.NewSimOracle(st, app, cfg.TraceLen, experiments.IPCOnly)
	d, err := explore.New(st.Space, oracle, explore.Config{ExploreConfig: core.ExploreConfig{
		Model:      cfg.Model,
		BatchSize:  cfg.Step,
		MaxSamples: cfg.End,
		Seed:       r.seed,
	}})
	fatal(err)
	ens, err := d.Run(context.Background())
	fatal(err)
	steps := d.Steps()
	last := steps[len(steps)-1]
	fmt.Printf("%d sims (%.2f%% of space): estimated %.2f%% ± %.2f%%\n",
		last.Samples, 100*last.Fraction, last.Est.MeanErr, last.Est.SDErr)
	b, err := bundle.New(st.Space, ens, bundle.Meta{
		Study:   st.Name,
		App:     app,
		Metric:  "IPC",
		Samples: len(d.Samples()),
		Model:   cfg.Model,
	})
	fatal(err)
	fatal(b.WriteFile(save))
	fmt.Printf("saved model bundle to %s (serve it: go run ./cmd/serve %s)\n", save, save)
	r.sweepReport(st, ens)
}

// sweepReport ranks the entire design space through the shared
// streaming engine (internal/sweep) — the full-space evaluation the
// model was trained to afford, identical to what cmd/sweep and
// POST /v1/sweep answer from the same bundle.
func (r *runner) sweepReport(st *studies.Study, ens *core.Ensemble) {
	set, err := core.NewMetricSet([]core.Metric{{Name: "IPC", Ens: ens}})
	fatal(err)
	res, err := sweep.Run(context.Background(), st.Space, set, sweep.Config{TopK: 5, Workers: 1})
	fatal(err)
	fmt.Printf("full-space sweep: %d points in %v (%.0f points/s); predicted top %d by IPC:\n",
		res.Points, res.Elapsed.Round(time.Millisecond), res.PointsPerSec, len(res.TopK[0]))
	for rank, p := range res.TopK[0] {
		fmt.Printf("  %d. IPC %.4f  %s\n", rank+1, p.Values[0], st.Space.Describe(p.Index))
	}
}

func (r *runner) active() {
	fmt.Println("== Chapter 7 extension: active learning vs random sampling ==")
	cfg := r.curveConfig()
	st := studies.Processor()
	if len(r.studies) == 1 {
		st = r.studies[0]
	}
	for _, app := range r.appsFor([]string{"mcf", "mesa"}) {
		points, err := experiments.ActiveLearning(st, app, cfg)
		fatal(err)
		fmt.Printf("\n%s / %s:\n", st.Name, app)
		fmt.Printf("%8s %12s %12s\n", "samples", "random err%", "active err%")
		for _, p := range points {
			fmt.Printf("%8d %11.2f%% %11.2f%%\n", p.Samples, p.RandomErr, p.ActiveErr)
		}
	}
}

// acquire compares Pareto-aware acquisition against the variance-only
// baseline: same seeds and budgets, hypervolume of the actually
// simulated designs (IPC maximized vs hardware budget minimized) after
// every round.
func (r *runner) acquire() {
	fmt.Println("== Pareto-aware acquisition vs variance-only selection ==")
	cfg := r.curveConfig()
	st := studies.MemorySystem()
	if len(r.studies) == 1 {
		st = r.studies[0]
	}
	specs := []string{"hvi:max=out0:min=out1", "frontier:max=out0:min=out1"}
	for _, app := range r.appsFor([]string{"mcf"}) {
		curves, err := experiments.AcquisitionLearning(st, app, cfg, specs)
		fatal(err)
		fmt.Printf("\n%s / %s (hypervolume of simulated designs: IPC maximized, hardware budget minimized):\n", st.Name, app)
		fmt.Printf("%8s", "samples")
		for _, c := range curves {
			fmt.Printf(" %24s", c.Name)
		}
		fmt.Println()
		for i := range curves[0].Points {
			fmt.Printf("%8d", curves[0].Points[i].Samples)
			for _, c := range curves {
				fmt.Printf(" %24.4f", c.Points[i].Hypervolume)
			}
			fmt.Println()
		}
		final := curves[0].Points[len(curves[0].Points)-1].Hypervolume
		for _, c := range curves[1:] {
			if b := experiments.BudgetToReach(c.Points, final); b >= 0 {
				fmt.Printf("%s matches the variance-only final hypervolume at %d simulations (%.0f%% of its budget)\n",
					c.Name, b, 100*float64(b)/float64(cfg.End))
			} else {
				fmt.Printf("%s never matches the variance-only final hypervolume within budget\n", c.Name)
			}
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}
