// Command serve turns saved model bundles into a long-running query
// service — the paper's "train once, query forever" loop over HTTP:
//
//	dsexplore -study memory -app mcf -save mcf.bundle   # train + save
//	serve -model mcf=mcf.bundle                         # serve it
//	curl -s localhost:8080/v1/predict \
//	     -d '{"model":"mcf","point":1234}'
//
// Bundles may also be passed as bare arguments, in which case each is
// registered under its file basename. Concurrent single-point requests
// are coalesced into batched ensemble calls; see internal/serve. A
// full-space sweep (internal/sweep) is a query too — top-k per metric
// plus the Pareto frontier, answered in the response:
//
//	curl -s localhost:8080/v1/sweep -d '{"model":"mcf","topk":10}'
//
// The server also runs exploration itself: POST /v1/explore submits an
// asynchronous job that runs the exploration driver (internal/explore)
// against the cycle-level simulator and registers the finished model
// under the requested name — no bundle files needed:
//
//	serve -jobs 2                                       # empty registry is fine
//	curl -s localhost:8080/v1/explore \
//	     -d '{"name":"mcf","study":"memory","app":"mcf","budget":500}'
//	curl -s localhost:8080/v1/jobs/job-1                # live round progress
//	curl -s localhost:8080/v1/predict \
//	     -d '{"model":"mcf","point":1234}'              # once done
//
// SIGINT/SIGTERM shut the server down gracefully: the listener stops,
// in-flight requests get -drain to finish, and queued or running jobs
// are cancelled with a recorded final state instead of vanishing
// mid-write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/studies"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "goroutines per model for batched prediction (0 = all cores)")
	maxBatch := flag.Int("coalesce-batch", 256, "max single-point requests answered per batched flush")
	linger := flag.Duration("coalesce-linger", 200*time.Microsecond, "how long a flush waits for more requests")
	jobs := flag.Int("jobs", 1, "exploration jobs running concurrently (0 disables POST /v1/explore and /v1/jobs; queries such as /v1/sweep still answer)")
	drain := flag.Duration("drain", 15*time.Second, "how long shutdown waits for in-flight requests before closing connections")
	jobQueue := flag.Int("job-queue", 16, "exploration jobs queued beyond the running ones before 429s")
	defaultInsts := flag.Int("insts", 30000, "default instructions per simulation for exploration jobs")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof profiles on this address (e.g. localhost:6060; empty = off)")
	cacheSize := flag.Int("cache-size", 0, "exact prediction cache entries across all models (0 disables caching)")
	rate := flag.Float64("rate", 0, "per-client sustained requests/second before 429s (0 disables rate limiting)")
	burst := flag.Int("burst", 0, "per-client burst headroom above -rate (0 = 1)")
	maxInflight := flag.Int("max-inflight", 0, "concurrently admitted model requests before 429s (0 = unbounded)")
	var models []string
	flag.Func("model", "name=bundle.json model to serve (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		models = append(models, v)
		return nil
	})
	flag.Parse()

	// Bare arguments are bundles named by file basename.
	for _, path := range flag.Args() {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		models = append(models, name+"="+path)
	}
	if len(models) == 0 && *jobs <= 0 {
		fatal(fmt.Errorf("nothing to serve: pass -model name=bundle.json (or bundle paths), or enable -jobs to explore on demand"))
	}

	reg := serve.NewRegistry()
	if *cacheSize > 0 {
		// Before any Add: each model's coalescer captures the cache at
		// registration.
		reg.EnableCache(*cacheSize)
		fmt.Printf("exact prediction cache: %d entries\n", *cacheSize)
	}
	opts := serve.CoalesceOpts{MaxBatch: *maxBatch, Linger: *linger}
	for _, spec := range models {
		name, path, _ := strings.Cut(spec, "=")
		m, err := reg.AddFile(name, path, opts, *workers)
		fatal(err)
		b := m.Bundle
		est := b.Ensemble.Estimate()
		fmt.Printf("loaded %-16s %s space, %d points, %d members, estimated %.2f%% ± %.2f%% (%s/%s, %d sims)\n",
			name, b.Space.Name, b.Space.Size(), b.Ensemble.Members(),
			est.MeanErr, est.SDErr, b.Meta.Study, b.Meta.App, b.Meta.Samples)
	}

	// Profiling is opt-in and rides its own listener, so the production
	// port never exposes /debug/pprof and the profile traffic cannot
	// interfere with query latency measurements on the main server.
	if *pprofAddr != "" {
		fmt.Printf("pprof profiles on http://%s/debug/pprof/\n", *pprofAddr)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pprofHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "serve: pprof:", err)
			}
		}()
	}

	var store *serve.JobStore
	if *jobs > 0 {
		store = serve.NewJobStore(reg, simBackend(*defaultInsts), *jobs, *jobQueue, opts)
		fmt.Printf("exploration enabled: %d concurrent job(s), queue of %d (POST /v1/explore)\n", *jobs, *jobQueue)
	}

	handler := serve.NewWithJobs(reg, store)
	if *rate > 0 || *maxInflight > 0 {
		handler.SetAdmission(*rate, *burst, *maxInflight)
		fmt.Printf("admission control: rate=%g/s burst=%d max-inflight=%d\n", *rate, *burst, *maxInflight)
	}

	fmt.Printf("serving %d model(s) on %s\n", reg.Len(), *addr)
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// A long-running service must not let stalled clients pin
		// goroutines and file descriptors forever; request bodies are
		// small JSON documents, so these bounds are generous.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute, // full-size sensitivity sweeps included
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until the listener fails or a shutdown signal arrives; on
	// SIGINT/SIGTERM, drain connections under a deadline and settle the
	// job store so every in-flight job records a final state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if store != nil {
			store.Close()
		}
		fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills the process the old-fashioned way
		fmt.Fprintf(os.Stderr, "serve: shutting down (draining for up to %v)\n", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
		}
		if store != nil {
			store.Close() // cancels queued/running jobs; each settles a final status
		}
		reg.Close()
		fmt.Fprintln(os.Stderr, "serve: stopped")
	}
}

// pprofHandler builds the profiling mux explicitly instead of relying
// on net/http/pprof's DefaultServeMux registration, so the profile
// endpoints exist only on the dedicated -pprof listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// simBackend resolves exploration requests onto the compiled-in studies
// and the cycle-level simulator — the same oracle cmd/dsexplore drives.
func simBackend(defaultInsts int) serve.Backend {
	return func(req serve.ExploreRequest) (*space.Space, core.Oracle, bundle.Meta, error) {
		study, err := studies.ByName(req.Study)
		if err != nil {
			return nil, nil, bundle.Meta{}, err
		}
		if req.App == "" {
			return nil, nil, bundle.Meta{}, fmt.Errorf("job needs an \"app\" (benchmark) to simulate")
		}
		traceLen := req.TraceLen
		if traceLen <= 0 {
			traceLen = defaultInsts
		}
		var acq *core.AcquireConfig
		if req.Acquire != "" {
			if acq, err = core.ParseAcquireSpec(req.Acquire); err != nil {
				return nil, nil, bundle.Meta{}, err
			}
		}
		metrics, metricName := experiments.OracleMetrics(acq)
		oracle := experiments.NewSimOracle(study, req.App, traceLen, metrics)
		meta := bundle.Meta{
			Study:    study.Name,
			App:      req.App,
			Metric:   metricName,
			TraceLen: traceLen,
		}
		return study.Space, oracle, meta, nil
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
