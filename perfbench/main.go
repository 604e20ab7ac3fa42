// Command perfbench times the paper's pipeline end to end on one
// worker. Its set-up builds a model with the §3.3 exploration loop
// (simulate, train, repeat) and round-trips it through a bundle file;
// the sweep workload then ranks the whole design space through it, and
// the serve workload sends it single-point predicts through an
// in-process HTTP server. One invocation runs one workload:
//
//	perfbench --workload sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer and reports per-layer
// metrics and the tracing overhead instead. Every run checks the
// program's outputs and exits non-zero when a check fails. The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":…,"unit":"ms"},…}}
//
// See DESIGN.md for the workloads, the metrics and what each layer is
// expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the bounded metrics a --trace 0 run reports, in print
// order. Every workload reports each of them; what "one unit" means
// differs per workload (one full-space sweep, one predict). Each
// workload also prints its own named metrics, unbounded.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports, in print order.
// A layer the workload does not exercise reports 0 with 0 samples.
var perLayer = []metricDef{
	{"workload.gen_ms", "ms"},
	{"sim.calls", "count"},
	{"sim.busy_s", "s"},
	{"sim.insts_per_s", "1/s"},
	{"sim.cycles", "count"},
	{"train.rounds", "count"},
	{"train.samples", "count"},
	{"train.busy_s", "s"},
	{"core.cv_err_pct", "%"},
	{"core.true_err_pct", "%"},
	{"explore.other_s", "s"},
	{"encode.busy_ms", "ms"},
	{"forward.busy_ms", "ms"},
	{"forward.points_per_s", "1/s"},
	{"reduce.ms", "ms"},
	{"pareto.frontier_size", "count"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p90_ms", "ms"},
	{"net.p50_ms", "ms"},
	{"predict.p99_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"coalesce.flushes", "count"},
	{"coalesce.rows_per_flush", "rows"},
	{"serve.rejected", "count"},
	{"trace.overhead", "ratio"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// named is a metric a workload reports under its own name, unbounded.
type named struct {
	name string
	metric
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	named             []named
	problems          []string  // failed output checks
	lines             []string  // extra human-readable findings
	units             []float64 // every timed unit (ms), in the order run
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, samples int) {
	r.metrics[name] = metric{Value: value, Samples: samples}
}

// also records a workload's own named metric for printing.
func (r *report) also(name, unit string, value float64, samples int) {
	r.named = append(r.named, named{name, metric{Value: value, Unit: unit, Samples: samples}})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	tr      *Tracer // nil for --trace 0
	work    string  // scratch directory for bundles, removed at exit
}

var workloads = map[string]func(runConfig) (*report, error){
	"sweep": runSweep,
	"serve": runServe,
}

func main() {
	workload := flag.String("workload", "", "sweep or serve")
	seed := flag.Uint64("seed", 1, "workload seed: every input is drawn from it")
	runSeconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 = record spans and report per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch files, traces and result records")
	flag.Parse()

	run, ok := workloads[*workload]
	switch {
	case !ok:
		fatal(fmt.Errorf("--workload must be sweep or serve, got %q", *workload))
	case *runSeconds < 1:
		fatal(fmt.Errorf("--seconds must be at least 1, got %d", *runSeconds))
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	for _, d := range []string{"work", "results", "traces"} {
		fatal(os.MkdirAll(filepath.Join(*out, d), 0o755))
	}
	work, err := os.MkdirTemp(filepath.Join(*out, "work"), *workload+"-")
	fatal(err)
	rc := runConfig{seed: *seed, seconds: time.Duration(*runSeconds) * time.Second, work: work}
	if *trace == 1 {
		rc.tr = newTracer()
	}

	env := environment(*seed)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *runSeconds, *trace)
	fmt.Printf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s\n", env.NProc, env.GOMAXPROCS, env.CPU, env.Go)

	rep, err := run(rc)
	os.RemoveAll(work) // best effort: the scratch directory lives under --out
	fatal(err)

	want := endToEnd
	if rc.tr != nil {
		want = perLayer
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		fatal(rc.tr.WriteFile(path))
		fmt.Printf("spans: %d written to %s\n", len(rc.tr.Spans()), path)
	}
	metrics := make(map[string]metric, len(want))
	fmt.Printf("%-24s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range want {
		m, ok := rep.metrics[d.name]
		m.Unit = d.unit
		switch {
		case rc.tr == nil && !(m.Value > 0 && !math.IsInf(m.Value, 0)):
			rep.problem("end-to-end metric %s is %v; it must be measured and positive", d.name, m.Value)
		case ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)):
			rep.problem("metric %s is not a number: %v", d.name, m.Value)
		}
		metrics[d.name] = m
		fmt.Printf("%-24s %16.6g %-6s n=%d\n", d.name, m.Value, d.unit, m.Samples)
	}
	failFrac := 0.0
	if rep.attempted > 0 {
		failFrac = float64(rep.failed) / float64(rep.attempted)
	} else {
		rep.problem("no operation was attempted")
	}
	if rc.tr == nil {
		fmt.Println("reported under the workload's own names, not bounded:")
		for _, m := range rep.named {
			fmt.Printf("%-24s %16.6g %-6s n=%d\n", m.name, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Printf("%-24s %16.6g %-6s n=%d\n", "fail_frac", failFrac, "", rep.attempted)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	correct := len(rep.problems) == 0

	record := struct {
		Workload  string            `json:"workload"`
		Seed      uint64            `json:"seed"`
		Seconds   int               `json:"seconds"`
		Trace     int               `json:"trace"`
		Env       machine           `json:"env"`
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		FailFrac  float64           `json:"fail_frac"`
		Metrics   map[string]metric `json:"metrics"`
		Named     map[string]metric `json:"named,omitempty"`
		Problems  []string          `json:"problems,omitempty"`
		Lines     []string          `json:"lines,omitempty"`
		UnitsMS   []float64         `json:"units_ms"`
	}{*workload, *seed, *runSeconds, *trace, env, correct, rep.attempted, rep.failed, failFrac,
		metrics, make(map[string]metric), rep.problems, rep.lines, rep.units}
	for _, m := range rep.named {
		record.Named[m.name] = m.metric
	}
	path := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace))
	buf, err := json.MarshalIndent(record, "", "  ")
	fatal(err)
	fatal(os.WriteFile(path, append(buf, '\n'), 0o644))
	fmt.Println("result record:", path)

	// The last line carries each metric's value and unit only.
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{correct, rep.attempted, rep.failed, make(map[string]valueUnit, len(metrics))}
	for name, m := range metrics {
		last.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	buf, err = json.Marshal(last)
	fatal(err)
	fmt.Println(string(buf))
	if !correct || rep.failed > 0 {
		os.Exit(1)
	}
}

// machine describes where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
}

func environment(seed uint64) machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size so far. Workloads
// read it when timing ends, before the checks and analysis that follow
// allocate for the benchmark's own purposes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// millis converts a duration to milliseconds for reporting.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}
