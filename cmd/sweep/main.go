// Command sweep ranks an entire design space through saved model
// bundles — the paper's full-space evaluation that simulation cannot
// afford, answered by the trained ensembles in seconds:
//
//	dsexplore -study memory -app mcf -budget 600 -save perf.bundle
//	sweep perf.bundle                     # top-10 + perf-vs-confidence frontier
//	sweep -topk 25 -workers 8 perf.bundle
//	sweep -metrics "perf,energy:min" -model perf=perf.bundle -model energy=energy.bundle
//
// Bundles are given as -model name=path pairs or bare paths (named by
// file basename); every bundle must model the same design space.
// -metrics picks the ranking axes with the grammar
//
//	[name=]model[:outN][:var][:min|:max]
//
// (":var" ranks by ensemble disagreement — the confidence axis; the
// default for a single bundle is its prediction maximized plus its
// variance minimized). The engine streams the space in chunks over a
// worker pool; output is bit-identical for any -workers/-chunk
// setting. -json emits the full result document instead of tables.
//
// -kernel selects the forward-pass tier (see internal/ann): "exact"
// (the default) is the bit-identical reference; "fast32" trades
// documented activation error bounds for multi-million-point/s
// throughput, and stays bit-identical within a tier for any
// -workers/-chunk/node setting:
//
//	sweep -kernel fast32 -topk 25 perf.bundle   # ~3.5x exact throughput
//
// With -nodes the same ranking fans out across a cluster of serve
// nodes instead of running locally (falling back to the local engine
// when the list is empty). Arguments then name models *registered on
// the nodes* — no local bundle files are read:
//
//	serve -addr :8081 -model perf=perf.bundle &    # every node serves
//	serve -addr :8082 -model perf=perf.bundle &    # the same bundles
//	sweep -nodes localhost:8081,localhost:8082 -topk 25 perf
//
// The coordinator shards the flat index range on absolute chunk
// boundaries, dispatches to POST /v1/sweep/shard with bounded
// in-flight concurrency per node (faster nodes pull more shards),
// retries failed or timed-out shards on surviving nodes, and merges
// partials in shard order — bit-identical to the local engine for any
// node count and failure schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func main() {
	topk := flag.Int("topk", sweep.DefaultTopK, "per-metric leaderboard size (negative = frontier only)")
	metricsFlag := flag.String("metrics", "", "ranking axes, e.g. \"perf,energy:min,conf=perf:var\" (default: per-bundle primaries; single bundle adds its :var axis)")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = all cores; with -nodes: per-node engine workers); results are identical for any setting")
	chunk := flag.Int("chunk", 0, "design points per streamed chunk (0 = default)")
	jsonOut := flag.Bool("json", false, "emit the result document as JSON")
	quiet := flag.Bool("quiet", false, "suppress progress reporting on stderr")
	kernelFlag := flag.String("kernel", "", "forward-kernel tier: exact (default, bit-identical) or fast32 (bounded-error, faster; bit-identical within a tier)")
	nodes := flag.String("nodes", "", "comma-separated serve-node URLs to fan the sweep out across (empty = run locally)")
	shardPts := flag.Int("shard", 0, "with -nodes: design points per dispatched shard (0 = auto, chunk-aligned)")
	var modelFlags []string
	flag.Func("model", "name=bundle.json model to rank with (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		modelFlags = append(modelFlags, v)
		return nil
	})
	flag.Parse()

	// Validate the tier name up front; the empty string parses as exact.
	kernel, err := ann.ParseKernelMode(*kernelFlag)
	fatal(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var res *sweep.Result
	describe := func(int) string { return "" }
	if *nodes != "" {
		res = runCluster(ctx, *nodes, flag.Args(), modelFlags, *metricsFlag, *topk, *chunk, *workers, *shardPts, *quiet, *kernelFlag)
	} else {
		var describeSpace func(int) string
		res, describeSpace = runLocal(ctx, modelFlags, *metricsFlag, *topk, *chunk, *workers, *quiet, kernel)
		describe = describeSpace
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(res))
		return
	}

	fmt.Printf("%s: %d points swept in %v (%.0f points/s) — %d metric(s)\n",
		res.Space, res.Points, res.Elapsed.Round(time.Millisecond), res.PointsPerSec, len(res.Metrics))
	for m, lead := range res.TopK {
		info := res.Metrics[m]
		dir := "max"
		if info.Minimize {
			dir = "min"
		}
		fmt.Printf("\ntop %d by %s (%s):\n", len(lead), info.Name, dir)
		for rank, p := range lead {
			fmt.Printf("  %2d. %s\n", rank+1, renderPoint(res, p))
		}
		if len(lead) > 0 {
			if d := describe(lead[0].Index); d != "" {
				fmt.Printf("      best: %s\n", d)
			}
		}
	}
	fmt.Printf("\nPareto frontier over {%s}: %d point(s)\n", metricList(res), len(res.Frontier))
	for _, p := range res.Frontier {
		fmt.Printf("  %s\n", renderPoint(res, p))
	}
}

// runLocal loads bundle files and sweeps in-process, returning the
// result and a design-point describer backed by the loaded space.
func runLocal(ctx context.Context, modelFlags []string, metricsFlag string, topk, chunk, workers int, quiet bool, kernel ann.KernelMode) (*sweep.Result, func(int) string) {
	for _, path := range flag.Args() {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		modelFlags = append(modelFlags, name+"="+path)
	}
	if len(modelFlags) == 0 {
		fatal(fmt.Errorf("nothing to sweep: pass -model name=bundle.json pairs or bundle paths"))
	}

	bundles := make(map[string]*bundle.Bundle, len(modelFlags))
	var names []string
	for _, spec := range modelFlags {
		name, path, _ := strings.Cut(spec, "=")
		if _, dup := bundles[name]; dup {
			fatal(fmt.Errorf("model %q given twice", name))
		}
		b, err := bundle.ReadFile(path)
		fatal(err)
		// The sweep pool owns the parallelism; single-worker ensembles
		// keep -workers scaling attributable and avoid oversubscription.
		b.Ensemble.SetWorkers(1)
		bundles[name] = b
		names = append(names, name)
	}

	specs := sweep.DefaultSpecs(names)
	if metricsFlag != "" {
		var err error
		specs, err = sweep.ParseSpecs(metricsFlag)
		fatal(err)
	}
	set, sp, err := sweep.Resolve(specs, bundles)
	fatal(err)

	cfg := sweep.Config{TopK: topk, ChunkSize: chunk, Workers: workers, Kernel: kernel}
	if !quiet {
		cfg.OnProgress = progressLine()
	}
	res, err := sweep.Run(ctx, sp, set, cfg)
	fatal(err)
	return res, sp.Describe
}

// runCluster fans the sweep out across serve nodes; model arguments
// name the nodes' registered bundles.
func runCluster(ctx context.Context, nodeList string, args, modelFlags []string, metricsFlag string, topk, chunk, workers, shardPts int, quiet bool, kernel string) *sweep.Result {
	if len(modelFlags) > 0 {
		fatal(fmt.Errorf("-model name=path loads local bundle files; with -nodes, name the nodes' registered models as plain arguments"))
	}
	// The flag string goes on the wire as given: an explicit tier —
	// including "exact" — overrides any node-local -kernel default,
	// while the empty default defers to it. Node defaults that disagree
	// are caught by the partial merge's kernel-label check.
	req := serve.SweepRequest{TopK: topk, Chunk: chunk, Workers: workers, Kernel: kernel}
	switch len(args) {
	case 0: // the nodes' sole registered model
	case 1:
		req.Model = args[0]
	default:
		req.Models = args
	}
	if metricsFlag != "" {
		specs, err := sweep.ParseSpecs(metricsFlag)
		fatal(err)
		req.Metrics = specs
	}
	cfg := cluster.Config{
		Nodes:       strings.Split(nodeList, ","),
		Request:     req,
		ShardPoints: shardPts,
	}
	if !quiet {
		cfg.OnProgress = progressLine()
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	coord, err := cluster.New(cfg)
	fatal(err)
	res, err := coord.Run(ctx)
	fatal(err)
	return res
}

// progressLine renders live swept/total progress on stderr.
func progressLine() func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		elapsed := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "\rswept %d/%d points (%.0f%%, %.0f points/s)   ",
			done, total, 100*float64(done)/float64(total), float64(done)/elapsed)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// renderPoint formats one scored point with named metric values.
func renderPoint(res *sweep.Result, p sweep.Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "point %-8d", p.Index)
	for m, v := range p.Values {
		fmt.Fprintf(&b, "  %s=%.6g", res.Metrics[m].Name, v)
	}
	return b.String()
}

func metricList(res *sweep.Result) string {
	names := make([]string, len(res.Metrics))
	for i, m := range res.Metrics {
		names[i] = m.Name
		if m.Minimize {
			names[i] += "↓"
		} else {
			names[i] += "↑"
		}
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}
