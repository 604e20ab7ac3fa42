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
// -workers/-chunk setting:
//
//	sweep -kernel fast32 -topk 25 perf.bundle   # ~3.5x exact throughput
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
	"repro/internal/sweep"
)

func main() {
	topk := flag.Int("topk", sweep.DefaultTopK, "per-metric leaderboard size (negative = frontier only)")
	metricsFlag := flag.String("metrics", "", "ranking axes, e.g. \"perf,energy:min,conf=perf:var\" (default: per-bundle primaries; single bundle adds its :var axis)")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = all cores); results are identical for any setting")
	chunk := flag.Int("chunk", 0, "design points per streamed chunk (0 = default)")
	jsonOut := flag.Bool("json", false, "emit the result document as JSON")
	quiet := flag.Bool("quiet", false, "suppress progress reporting on stderr")
	kernelFlag := flag.String("kernel", "", "forward-kernel tier: exact (default, bit-identical) or fast32 (bounded-error, faster; bit-identical within a tier)")
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
	if *metricsFlag != "" {
		specs, err = sweep.ParseSpecs(*metricsFlag)
		fatal(err)
	}
	set, sp, err := sweep.Resolve(specs, bundles)
	fatal(err)

	cfg := sweep.Config{TopK: *topk, ChunkSize: *chunk, Workers: *workers, Kernel: kernel}
	if !*quiet {
		cfg.OnProgress = progressLine()
	}
	res, err := sweep.Run(ctx, sp, set, cfg)
	fatal(err)

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
			fmt.Printf("      best: %s\n", sp.Describe(lead[0].Index))
		}
	}
	fmt.Printf("\nPareto frontier over {%s}: %d point(s)\n", metricList(res), len(res.Frontier))
	for _, p := range res.Frontier {
		fmt.Printf("  %s\n", renderPoint(res, p))
	}
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
