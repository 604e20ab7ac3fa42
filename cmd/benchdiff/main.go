// Command benchdiff is the benchmark-regression gate: it runs the
// benchmarks named by the checked-in BENCH_*.json baselines and fails
// (exit 1) when a measured metric regresses past each gate's
// tolerance. CI runs it as a dedicated step, so a change that quietly
// halves sweep or prediction throughput fails the build instead of
// landing.
//
//	benchdiff                      # gate against every ./BENCH_*.json
//	benchdiff BENCH_sweep.json     # one baseline file
//	benchdiff -update              # re-measure and rewrite the baselines
//	benchdiff -scale 2             # double every tolerance (cross-machine runs)
//
// A baseline file opts in by carrying a top-level "gates" array:
//
//	"gates": [{
//	  "name":           "sweep-1-worker",
//	  "package":        "./internal/sweep",
//	  "benchmark":      "BenchmarkSweep/workers=1",
//	  "metric":         "points/s",
//	  "baseline":       467000,
//	  "max_regression": 0.30,
//	  "benchtime":      "1s"
//	}]
//
// "benchmark" is matched in full (regexp) against reported benchmark
// names with their -GOMAXPROCS suffix stripped. Metrics ending in
// "/op" gate on increases (lower is better); everything else — like
// the points/s throughput the repo's hot paths report — gates on
// decreases. Gates sharing a package and benchtime run under one
// `go test -bench` invocation.
//
// A gate may additionally pin a same-run speedup contract with
// "min_ratio_to"/"min_ratio": its measurement must stay at least
// min_ratio times the named gate's measurement. Both sides come from
// the same machine and run, so the ratio holds across hardware and
// -scale leaves it untouched — this is how BENCH_sweep.json pins batched
// prediction against the per-point loop wherever CI runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// gate is one benchmark-regression rule from a baseline file.
type gate struct {
	Name          string  `json:"name"`
	Package       string  `json:"package"`
	Benchmark     string  `json:"benchmark"`
	Metric        string  `json:"metric"`
	Baseline      float64 `json:"baseline"`
	MaxRegression float64 `json:"max_regression"` // fraction; 0 = default 0.30
	Benchtime     string  `json:"benchtime"`      // go test -benchtime; 0 = default "1s"
	// MinRatioTo/MinRatio gate a same-run *ratio*: this gate's
	// measurement must stay at least MinRatio times the measurement of
	// the gate named MinRatioTo. Both sides are measured on the same
	// machine in the same benchdiff run, so — unlike absolute baselines
	// — the ratio is machine-independent and -scale does not loosen it.
	// This is how speedup contracts (e.g. batched ≥ 2.5x per-point) are
	// pinned.
	MinRatioTo string  `json:"min_ratio_to,omitempty"`
	MinRatio   float64 `json:"min_ratio,omitempty"`
}

// lowerIsBetter: the go benchmark per-op metrics shrink when code gets
// faster; custom throughput metrics grow.
func (g gate) lowerIsBetter() bool { return strings.HasSuffix(g.Metric, "/op") }

func (g gate) tolerance() float64 {
	if g.MaxRegression > 0 {
		return g.MaxRegression
	}
	return 0.30
}

func (g gate) benchtime() string {
	if g.Benchtime != "" {
		return g.Benchtime
	}
	return "1s"
}

func main() {
	update := flag.Bool("update", false, "rewrite the baseline values with this machine's measurements")
	scale := flag.Float64("scale", 1, "multiply every gate's tolerance (e.g. 2 when comparing across machines)")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		var err error
		paths, err = filepath.Glob("BENCH_*.json")
		fatal(err)
	}

	type fileGates struct {
		path  string
		doc   map[string]any
		gates []gate
	}
	var files []fileGates
	var all []gate
	gateFile := map[string]string{} // gate name → baseline path, for the report
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		fatal(err)
		var doc map[string]any
		fatal(json.Unmarshal(raw, &doc))
		rawGates, ok := doc["gates"]
		if !ok {
			continue // informational baseline file, nothing to gate on
		}
		buf, err := json.Marshal(rawGates)
		fatal(err)
		var gs []gate
		fatal(json.Unmarshal(buf, &gs))
		for _, g := range gs {
			if g.Name == "" || g.Package == "" || g.Benchmark == "" || g.Metric == "" {
				fatal(fmt.Errorf("%s: gate %+v is missing name/package/benchmark/metric", path, g))
			}
			if (g.MinRatioTo == "") != (g.MinRatio == 0) {
				fatal(fmt.Errorf("%s: gate %q must set min_ratio_to and min_ratio together", path, g.Name))
			}
			if _, dup := gateFile[g.Name]; dup {
				fatal(fmt.Errorf("duplicate gate name %q", g.Name))
			}
			gateFile[g.Name] = path
		}
		files = append(files, fileGates{path: path, doc: doc, gates: gs})
		all = append(all, gs...)
	}
	for _, g := range all {
		if g.MinRatioTo != "" {
			if _, ok := gateFile[g.MinRatioTo]; !ok {
				fatal(fmt.Errorf("gate %q: min_ratio_to names unknown gate %q", g.Name, g.MinRatioTo))
			}
		}
	}
	if len(all) == 0 {
		fmt.Println("benchdiff: no gates found; nothing to check")
		return
	}

	// One `go test -bench` run per distinct (package, benchmark,
	// benchtime); gates reading different metrics off one benchmark
	// share the run.
	type runKey struct{ pkg, bench, benchtime string }
	outputs := map[runKey]string{}
	measured := map[string]float64{} // gate name → value
	for _, g := range all {
		k := runKey{g.Package, g.Benchmark, g.benchtime()}
		out, ok := outputs[k]
		if !ok {
			// go test matches -bench per slash-separated level; anchor
			// each level so "batched" cannot also select
			// "batched-parallel".
			parts := strings.Split(g.Benchmark, "/")
			for i, p := range parts {
				parts[i] = "^" + p + "$"
			}
			out = runBenches(g.Package, strings.Join(parts, "/"), k.benchtime)
			outputs[k] = out
		}
		v, ok := findMetric(out, g.Benchmark, g.Metric)
		if !ok {
			fatal(fmt.Errorf("gate %q: benchmark %q reported no %q metric in %s", g.Name, g.Benchmark, g.Metric, g.Package))
		}
		measured[g.Name] = v
	}

	if *update {
		for _, f := range files {
			gs, ok := f.doc["gates"].([]any)
			if !ok {
				fatal(fmt.Errorf("%s: \"gates\" is not an array", f.path))
			}
			for _, entry := range gs {
				m, ok := entry.(map[string]any)
				if !ok {
					fatal(fmt.Errorf("%s: gate entry %v is not an object", f.path, entry))
				}
				// JSON decoding into the gate struct is case-insensitive,
				// but the rewrite targets literal keys — insist on the
				// documented lowercase spelling.
				name, ok := m["name"].(string)
				if !ok {
					fatal(fmt.Errorf("%s: gate entry has no lowercase \"name\" key (gate keys must be lowercase)", f.path))
				}
				m["baseline"] = round3(measured[name])
			}
			buf, err := json.MarshalIndent(f.doc, "", "  ")
			fatal(err)
			fatal(os.WriteFile(f.path, append(buf, '\n'), 0o644))
			fmt.Printf("updated %s\n", f.path)
		}
		return
	}

	failed := 0
	for _, g := range all {
		v := measured[g.Name]
		tol := g.tolerance() * *scale
		limit := g.Baseline * (1 - tol)
		verdict := "ok"
		regressed := v < limit
		if g.lowerIsBetter() {
			limit = g.Baseline * (1 + tol)
			regressed = v > limit
		}
		if regressed {
			verdict = "REGRESSED"
			failed++
		}
		fmt.Printf("%-24s %-34s %14.6g %s (baseline %.6g, limit %.6g, %s)\n",
			g.Name, g.Benchmark, v, g.Metric, g.Baseline, limit, verdict)
		if g.MinRatioTo != "" {
			ref := measured[g.MinRatioTo]
			ratio := v / ref
			verdict := "ok"
			if !(ratio >= g.MinRatio) { // NaN (ref 0) must fail, not pass
				verdict = "REGRESSED"
				failed++
			}
			fmt.Printf("%-24s %-34s %14.3gx vs %s (floor %.3gx, %s)\n",
				g.Name+"(ratio)", g.Benchmark, ratio, g.MinRatioTo, g.MinRatio, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d of %d gate(s) regressed beyond tolerance (baselines in %v)\n",
			failed, len(all), paths)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all %d gate(s) within tolerance\n", len(all))
}

// runBenches executes one benchmark group and returns the raw output.
func runBenches(pkg, benchRE, benchtime string) string {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchRE, "-benchtime", benchtime, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		fatal(fmt.Errorf("go test -bench %s %s failed: %v\n%s", benchRE, pkg, err, out))
	}
	return string(out)
}

// findMetric scans go test -bench output for the named benchmark (its
// -GOMAXPROCS suffix stripped) and returns the value reported with the
// given unit.
func findMetric(out, bench, metric string) (float64, bool) {
	re := regexp.MustCompile("^(?:" + bench + ")$")
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if !re.MatchString(name) {
			continue
		}
		// fields: name, iterations, then value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == metric {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return 0, false
				}
				return v, true
			}
		}
	}
	return 0, false
}

func round3(v float64) float64 {
	s, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 3, 64), 64)
	if err != nil {
		return v
	}
	return s
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
