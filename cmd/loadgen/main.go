// Command loadgen is the production load harness: it drives one or
// more serve nodes with deterministic, time-varying traffic and grades
// the run against declarative SLOs — turning "handles heavy traffic"
// into a measured, CI-gateable number.
//
// A 24-hour diurnal soak, compressed to run as fast as the server
// absorbs it, gated on tail latency and error rate:
//
//	loadgen -target http://localhost:8080 -model mcf \
//	        -pattern diurnal:base=40,peak=160 \
//	        -events 'maint@12h+30m;sweep@6h:rows=2048' \
//	        -duration 24h -clock simulated -interval 30m \
//	        -timeline timeline.csv \
//	        -slo 'p99<250ms,error_rate<0.5%,completion>99%'
//
// The exit status is the verdict: 0 when every SLO clause holds, 1 on
// violation (named in the report), 2 on usage or transport errors —
// so a CI step is just "run loadgen".
//
// The schedule — arrival offsets, request payloads and mix, scheduled
// events — is a pure function of -seed, -pattern, -events, -mix and
// -duration. The clock only paces dispatch: -clock real replays the
// schedule at -time-scale× wall speed (86400s of traffic at
// -time-scale 720 takes two minutes); -clock simulated does not pace
// at all. Same seed, same schedule, byte for byte, either way: the
// timeline's schedule-derived columns (bucket, offered, events) are
// reproducible, while its measured columns (latency percentiles,
// errors, coalescing) describe the run at hand.
//
// Traffic is a weighted mix of the serve API's query shapes: coalesced
// single-point predicts, small prediction batches, and variance
// queries; scheduled "sweep" events add heavyweight batch requests
// mid-run, and "maint"/"surge" windows reshape the offered curve. With
// several -target nodes, requests round-robin deterministically. A
// zipf_s term in -mix skews point popularity so the server's
// prediction cache sees realistic hot keys, graded by the cache_hit
// SLO metric; 429s from admission control count as "rejected", graded
// separately from errors.
//
// Server-side counters (coalescing efficiency, cache hit rate) are
// scraped from GET /metrics.
//
// -train-demo trains a small simulator-backed bundle and writes it to
// the given path, so a self-contained smoke soak needs no prior
// artifacts:
//
//	loadgen -train-demo demo.bundle
//	serve -model demo=demo.bundle &
//	loadgen -target http://localhost:8080 -duration 24h -clock simulated ...
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/experiments"
	"repro/internal/loadsim"
	"repro/internal/stats"
	"repro/internal/studies"
)

func main() {
	var targets []string
	flag.Func("target", "serve node base URL (repeatable; requests round-robin across nodes)", func(v string) error {
		for _, t := range strings.Split(v, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		return nil
	})
	model := flag.String("model", "", "model to drive (default: the target's single loaded model)")
	patternSpec := flag.String("pattern", "diurnal", "load pattern spec (constant|ramp|diurnal|spike terms joined by +, or a preset)")
	eventSpec := flag.String("events", "", "scheduled events, e.g. 'maint@12h+30m;surge@18h+10m:mult=3;sweep@6h:rows=2048'")
	mixSpec := flag.String("mix", "", "request mix, e.g. predict=90,batch=5,variance=5,rows=32,zipf_s=1.1,zipf_n=1024 (zipf_s>0 skews point popularity so caches have something to hit)")
	duration := flag.Duration("duration", time.Hour, "simulated length of the run")
	interval := flag.Duration("interval", 0, "timeline bucket width in simulated time (default duration/48)")
	clockMode := flag.String("clock", "real", "real (wall pacing at -time-scale) or simulated (no pacing)")
	timeScale := flag.Float64("time-scale", 1, "simulated seconds per wall second under -clock real")
	seed := flag.Uint64("seed", 1, "schedule seed; same seed ⇒ same schedule")
	workers := flag.Int("workers", 16, "max in-flight requests")
	timelinePath := flag.String("timeline", "", "write the bucketed timeline here (.csv or .json by extension)")
	reportPath := flag.String("report", "", "write the JSON run report here (default stdout)")
	sloSpec := flag.String("slo", "", "SLO clauses, e.g. 'p99<50ms,error_rate<0.1%,rejected<1%,cache_hit>=50%,dropped<1,completion>99.9%'")
	noStats := flag.Bool("no-stats", false, "skip polling server counters (GET /metrics)")
	trainDemo := flag.String("train-demo", "", "train a small simulator-backed demo bundle, write it here, and exit")
	flag.Parse()

	if *trainDemo != "" {
		fatal(writeDemoBundle(*trainDemo))
		fmt.Printf("wrote demo bundle to %s\n", *trainDemo)
		return
	}
	if len(targets) == 0 {
		fatal(fmt.Errorf("need at least one -target URL (or -train-demo)"))
	}

	pattern, err := loadsim.ParsePattern(*patternSpec, *duration)
	fatal(err)
	events, err := loadsim.ParseEvents(*eventSpec, *duration)
	fatal(err)
	mix, err := loadsim.ParseMix(*mixSpec)
	fatal(err)
	slo, err := loadsim.ParseSLO(*sloSpec)
	fatal(err)
	clock, err := loadsim.NewClock(*clockMode, *timeScale)
	fatal(err)

	cfg := loadsim.Config{
		Targets:   targets,
		Model:     *model,
		Pattern:   pattern,
		Events:    events,
		Mix:       mix,
		Duration:  *duration,
		Interval:  *interval,
		Seed:      *seed,
		Workers:   *workers,
		Clock:     clock,
		SkipStats: *noStats,
	}

	fmt.Fprintf(os.Stderr, "loadgen: %v of simulated traffic (%s clock", *duration, *clockMode)
	if *clockMode == "real" {
		fmt.Fprintf(os.Stderr, ", %gx", *timeScale)
	}
	fmt.Fprintf(os.Stderr, "), pattern %s, seed %d, %d node(s)\n", pattern.Spec(), *seed, len(targets))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, runErr := loadsim.Run(ctx, cfg)
	if res == nil {
		fatal(runErr)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: interrupted (%v); reporting the partial run\n", runErr)
	}

	rep := slo.Evaluate(res.Summary)
	res.SLO = &rep

	if *timelinePath != "" {
		fatal(writeTimeline(res, *timelinePath))
	}
	out := os.Stdout
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		fatal(err)
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	fatal(enc.Encode(res))

	s := res.Summary
	fmt.Fprintf(os.Stderr,
		"loadgen: offered %d, done %d (%.4g%% errors, %.4g%% rejected), p50/p95/p99 %.3g/%.3g/%.3g ms, %.5g req/s wall, coalesce %.3g, cache hit %.4g%%, %.3gs wall\n",
		s.Offered, s.Done, s.ErrorRate*100, s.RejectRate*100, s.P50MS, s.P95MS, s.P99MS, s.WallRPS, s.Coalesce, s.CacheHit*100, s.WallSecs)
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "loadgen: SLO VIOLATION %s: measured %g, limit %g\n", v.Clause, v.Measured, v.Limit)
	}
	if len(rep.Checked) > 0 {
		if rep.Pass {
			fmt.Fprintf(os.Stderr, "loadgen: SLO pass (%d clause(s))\n", len(rep.Checked))
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: SLO FAIL (%d of %d clause(s) violated)\n", len(rep.Violations), len(rep.Checked))
			os.Exit(1)
		}
	}
}

// writeTimeline writes CSV or JSON by file extension.
func writeTimeline(res *loadsim.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return res.Timeline.WriteJSON(f)
	}
	return res.Timeline.WriteCSV(f)
}

// writeDemoBundle trains a small ensemble on the memory-system study
// through the cycle-level simulator — real space, real oracle, a few
// seconds of work — and saves it for smoke soaks.
func writeDemoBundle(path string) error {
	st := studies.MemorySystem()
	const app, traceLen, samples = "mcf", 2000, 48
	oracle := experiments.NewSimOracle(st, app, traceLen, experiments.IPCOnly)
	rng := stats.NewRNG(7)
	idxs := st.Space.Sample(rng, samples)
	y, err := oracle.Evaluate(idxs)
	if err != nil {
		return err
	}
	enc := encoding.NewEncoder(st.Space)
	x := make([][]float64, len(idxs))
	for i, idx := range idxs {
		x[i] = enc.EncodeIndex(idx, nil)
	}
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		return err
	}
	b, err := bundle.New(st.Space, ens, bundle.Meta{
		Study: st.Name, App: app, Metric: "IPC", Model: cfg,
		TraceLen: traceLen, Samples: samples,
	})
	if err != nil {
		return err
	}
	return b.WriteFile(path)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
}
