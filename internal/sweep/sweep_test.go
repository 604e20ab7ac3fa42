package sweep

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

func testSpace() *space.Space {
	return space.New("sweep-synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

func perfTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	v := 0.4 + 0.3*math.Log2(sp.Value(c, 0)) + 0.1*sp.Value(c, 1)*sp.Value(c, 2)
	if sp.LevelName(c, 3) == "y" {
		v *= 1.25
	}
	return v
}

func energyTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	return 0.2 + 0.05*sp.Value(c, 0) + 0.1*sp.Value(c, 1)*sp.Value(c, 2)
}

// trainBundle fits a quick ensemble to target over the test space and
// wraps it as a bundle, the artifact sweeps actually consume.
func trainBundle(t testing.TB, seed uint64, target func(*space.Space, int) float64) *bundle.Bundle {
	t.Helper()
	sp := testSpace()
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 20
	cfg.Seed = seed
	rng := stats.NewRNG(seed)
	train := sp.Sample(rng, 60)
	enc := encoding.NewEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{target(sp, idx)}
	}
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(sp, ens, bundle.Meta{Study: "synth", Metric: "perf"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	modelsOnce sync.Once
	perfB      *bundle.Bundle
	energyB    *bundle.Bundle
)

// testBundles trains the shared perf/energy models once per process.
func testBundles(t testing.TB) (*bundle.Bundle, *bundle.Bundle) {
	modelsOnce.Do(func() {
		perfB = trainBundle(t, 41, perfTarget)
		energyB = trainBundle(t, 42, energyTarget)
	})
	return perfB, energyB
}

// testSet is the three-axis metric set most tests sweep with: perf
// (maximize), energy (minimize), perf confidence (minimize variance).
func testSet(t testing.TB) (*core.MetricSet, *space.Space) {
	perf, energy := testBundles(t)
	set, sp, err := Resolve([]MetricSpec{
		{Name: "perf", Model: "perf"},
		{Name: "energy", Model: "energy", Minimize: true},
		{Name: "conf", Model: "perf", Variance: true, Minimize: true},
	}, map[string]*bundle.Bundle{"perf": perf, "energy": energy})
	if err != nil {
		t.Fatal(err)
	}
	return set, sp
}

// sameReduction compares the deterministic parts of two results
// (everything but wall-clock throughput), bit for bit.
func sameReduction(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Space != b.Space || a.Points != b.Points {
		t.Fatalf("%s: space/points %s/%d vs %s/%d", label, a.Space, a.Points, b.Space, b.Points)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("%s: metrics %v vs %v", label, a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.TopK, b.TopK) {
		t.Fatalf("%s: top-k diverged:\n%v\nvs\n%v", label, a.TopK, b.TopK)
	}
	if !reflect.DeepEqual(a.Frontier, b.Frontier) {
		t.Fatalf("%s: frontier diverged:\n%v\nvs\n%v", label, a.Frontier, b.Frontier)
	}
}

// TestRunMatchesReference is the engine's ground-truth parity: the
// streaming, chunked, pooled sweep must reproduce the naive
// materialize-everything reference exactly on a small space.
func TestRunMatchesReference(t *testing.T) {
	set, sp := testSet(t)
	want, err := Reference(sp, set, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 13, 50, sp.Size(), 4096} {
		got, err := Run(context.Background(), sp, set, Config{TopK: 7, ChunkSize: chunk, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		sameReduction(t, "chunked vs reference", want, got)
	}
}

// TestRunBitIdenticalAcrossWorkers is the sharding guarantee: output
// bits do not depend on the worker count.
func TestRunBitIdenticalAcrossWorkers(t *testing.T) {
	set, sp := testSet(t)
	var base *Result
	for _, workers := range []int{1, 4, 16} {
		got, err := Run(context.Background(), sp, set, Config{TopK: 5, ChunkSize: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		sameReduction(t, "workers", base, got)
	}
}

// TestRunKernelBitIdentity extends the sharding guarantee to every
// kernel tier: within a mode, the sweep reduction is byte-identical
// for every worker count and chunk size. Modes are free to differ from
// each other — each one is its own deterministic function of the
// inputs.
func TestRunKernelBitIdentity(t *testing.T) {
	set, sp := testSet(t)
	for _, mode := range []ann.KernelMode{ann.KernelExact, ann.KernelFast32} {
		var base *Result
		for _, workers := range []int{1, 4, 16} {
			for _, chunk := range []int{9, 64, 512} {
				got, err := Run(context.Background(), sp, set, Config{
					TopK: 5, ChunkSize: chunk, Workers: workers, Kernel: mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = got
					continue
				}
				sameReduction(t, mode.String(), base, got)
			}
		}
		if base.Kernel != kernelLabel(mode) {
			t.Fatalf("result kernel label %q, want %q", base.Kernel, kernelLabel(mode))
		}
	}
}

// TestRunSingleMetric covers the degenerate single-axis sweep: the
// frontier collapses to the single best point (duplicates included),
// matching the reference.
func TestRunSingleMetric(t *testing.T) {
	perf, _ := testBundles(t)
	set, sp, err := Resolve([]MetricSpec{{Model: "perf"}}, map[string]*bundle.Bundle{"perf": perf})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), sp, set, Config{TopK: 3, ChunkSize: 17})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(sp, set, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameReduction(t, "single metric", want, got)
	if len(got.Frontier) != 1 {
		t.Fatalf("single-metric frontier has %d points, want 1", len(got.Frontier))
	}
	if got.Frontier[0].Index != got.TopK[0][0].Index {
		t.Fatalf("frontier %d != top-1 %d", got.Frontier[0].Index, got.TopK[0][0].Index)
	}
}

// TestRunVarianceOnly sweeps metric sets that read only a model's
// member disagreement — one variance axis, and two on the same model —
// so no metric asks for the mean. The engine must match the reference,
// and the variance leaderboard must equal the variance column of the
// same model's mean+variance sweep.
func TestRunVarianceOnly(t *testing.T) {
	perf, _ := testBundles(t)
	models := map[string]*bundle.Bundle{"perf": perf}
	full, sp, err := Resolve([]MetricSpec{
		{Name: "perf", Model: "perf"},
		{Name: "conf", Model: "perf", Variance: true, Minimize: true},
	}, models)
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := Run(context.Background(), sp, full, Config{TopK: 5, ChunkSize: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, specs := range [][]MetricSpec{
		{{Name: "conf", Model: "perf", Variance: true, Minimize: true}},
		{{Name: "conf", Model: "perf", Variance: true, Minimize: true}, {Name: "spread", Model: "perf", Variance: true}},
	} {
		set, sp, err := Resolve(specs, models)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), sp, set, Config{TopK: 5, ChunkSize: 17, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(sp, set, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameReduction(t, "variance only", want, got)
		for i, p := range got.TopK[0] {
			q := fullRes.TopK[1][i]
			if p.Index != q.Index || p.Values[0] != q.Values[1] {
				t.Fatalf("%d metrics: variance rank %d is point %d (%v), mean+variance sweep has %d (%v)",
					len(specs), i, p.Index, p.Values[0], q.Index, q.Values[1])
			}
		}
	}
}

// TestRunProgressAndThroughput checks the streaming bookkeeping:
// progress arrives in order and covers the space exactly once.
func TestRunProgressAndThroughput(t *testing.T) {
	set, sp := testSet(t)
	var done []int
	res, err := Run(context.Background(), sp, set, Config{ChunkSize: 25, Workers: 4, OnProgress: func(d, total int) {
		if total != sp.Size() {
			t.Errorf("progress total %d, want %d", total, sp.Size())
		}
		done = append(done, d)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(done); i++ {
		if done[i] <= done[i-1] {
			t.Fatalf("progress not monotone: %v", done)
		}
	}
	if len(done) == 0 || done[len(done)-1] != sp.Size() {
		t.Fatalf("progress ended at %v, want %d", done, sp.Size())
	}
	if res.Points != sp.Size() || res.PointsPerSec <= 0 {
		t.Fatalf("points %d, throughput %v", res.Points, res.PointsPerSec)
	}
}

// TestRunCancel abandons the sweep on context cancellation.
func TestRunCancel(t *testing.T) {
	set, sp := testSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sp, set, Config{ChunkSize: 1}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunFrontierCap: a degenerate metric set (one axis maximized and
// minimized) would otherwise put every distinct point on the frontier;
// the cap fails the sweep deterministically, and a negative cap opts
// back into the unbounded reduction.
func TestRunFrontierCap(t *testing.T) {
	perf, _ := testBundles(t)
	set, sp, err := Resolve([]MetricSpec{
		{Name: "up", Model: "perf"},
		{Name: "down", Model: "perf", Minimize: true},
	}, map[string]*bundle.Bundle{"perf": perf})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		_, err = Run(context.Background(), sp, set, Config{ChunkSize: 10, Workers: workers, MaxFrontier: 16})
		if err == nil || !strings.Contains(err.Error(), "frontier exceeds 16") {
			t.Fatalf("workers=%d: degenerate sweep err = %v, want frontier cap", workers, err)
		}
	}
	res, err := Run(context.Background(), sp, set, Config{ChunkSize: 10, MaxFrontier: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) <= 16 {
		t.Fatalf("unbounded degenerate frontier has %d points, expected > 16", len(res.Frontier))
	}
}

// TestRunRejectsNonFiniteDeterministically: a model that predicts NaN
// (an exec-oracle backend gone bad, say) must fail the sweep with an
// error naming the offending flat index — and because the reducer
// surfaces errors strictly in chunk-id order, the same error for any
// worker count instead of whichever chunk lost the race.
func TestRunRejectsNonFiniteDeterministically(t *testing.T) {
	nan := trainBundle(t, 43, func(*space.Space, int) float64 { return math.NaN() })
	set, sp, err := Resolve([]MetricSpec{
		{Name: "bad", Model: "bad"},
	}, map[string]*bundle.Bundle{"bad": nan})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), sp, set, Config{ChunkSize: 10, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: sweep over a NaN-predicting model succeeded", workers)
		}
		if !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), "point") {
			t.Fatalf("workers=%d: err %q does not name a non-finite point", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("non-finite rejection depends on worker count:\n%s\nvs\n%s", msgs[0], msgs[1])
	}
}

// TestRunClampsChunkToSpace: a chunk larger than the space sweeps the
// space as one chunk, so it must reproduce the default sweep and
// allocate no more than a chunk of exactly the space's size — workers
// size their buffers by the chunk, not by what it can hold.
func TestRunClampsChunkToSpace(t *testing.T) {
	set, sp := testSet(t)
	run := func(chunk int) (*Result, uint64) {
		// Two collections empty the kernels' scratch pools, so every
		// measured run allocates its scratch afresh.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(context.Background(), sp, set, Config{TopK: 5, ChunkSize: chunk, Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	want, _ := run(0)
	got, huge := run(1 << 20)
	sameReduction(t, "chunk 1<<20 vs default", want, got)
	if _, exact := run(sp.Size()); huge > 2*exact {
		t.Fatalf("chunk 1<<20 allocated %d bytes, chunk %d only %d", huge, sp.Size(), exact)
	}
}

// TestRunValidation rejects malformed configurations.
func TestRunValidation(t *testing.T) {
	set, sp := testSet(t)
	if _, err := Run(context.Background(), nil, set, Config{}); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := Run(context.Background(), sp, nil, Config{}); err == nil {
		t.Fatal("nil metric set accepted")
	}
	if _, err := Run(context.Background(), sp, set, Config{ChunkSize: -1}); err == nil {
		t.Fatal("negative chunk accepted")
	}
	other := space.New("other", []space.Param{
		{Name: "x", Kind: space.Cardinal, Values: []float64{1, 2}},
	})
	if _, err := Run(context.Background(), other, set, Config{}); err == nil || !strings.Contains(err.Error(), "inputs") {
		t.Fatalf("width mismatch err = %v", err)
	}
}

// TestResolveValidation covers the bundle-facing error paths.
func TestResolveValidation(t *testing.T) {
	perf, energy := testBundles(t)
	both := map[string]*bundle.Bundle{"perf": perf, "energy": energy}
	if _, _, err := Resolve(nil, both); err == nil {
		t.Fatal("no metrics accepted")
	}
	if _, _, err := Resolve([]MetricSpec{{Model: "perf"}}, nil); err == nil {
		t.Fatal("no bundles accepted")
	}
	if _, _, err := Resolve([]MetricSpec{{}}, both); err == nil || !strings.Contains(err.Error(), "names no model") {
		t.Fatalf("ambiguous model err = %v", err)
	}
	if _, _, err := Resolve([]MetricSpec{{Model: "nope"}}, both); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("unknown model err = %v", err)
	}
	if _, _, err := Resolve([]MetricSpec{{Model: "perf", Output: 3}}, both); err == nil || !strings.Contains(err.Error(), "output") {
		t.Fatalf("bad output err = %v", err)
	}
	// A bundle over a drifted space must not join the set.
	drifted := trainBundle(t, 77, perfTarget)
	driftedSpace := testSpace()
	driftedSpace.Params[0].Values = []float64{1, 2, 4, 16}
	db, err := bundle.New(space.New("sweep-synth", driftedSpace.Params), drifted.Ensemble, bundle.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []MetricSpec{{Model: "perf"}, {Model: "drift"}}
	if _, _, err := Resolve(specs, map[string]*bundle.Bundle{"perf": perf, "drift": db}); err == nil || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("drifted space err = %v", err)
	}
	// Empty model resolves against a sole bundle.
	set, _, err := Resolve([]MetricSpec{{Variance: true, Minimize: true}}, map[string]*bundle.Bundle{"perf": perf})
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Names()[0]; got != "perf.var" {
		t.Fatalf("derived name = %q, want perf.var", got)
	}
}

// TestParseSpecs covers the CLI metric grammar.
func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("ipc=perf, conf=perf:var ,energy:min,mt:out2:max")
	if err != nil {
		t.Fatal(err)
	}
	want := []MetricSpec{
		{Name: "ipc", Model: "perf"},
		{Name: "conf", Model: "perf", Variance: true, Minimize: true},
		{Model: "energy", Minimize: true},
		{Model: "mt", Output: 2},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("specs = %+v, want %+v", specs, want)
	}
	for _, bad := range []string{"", "a,,b", "=perf", "perf:bogus", "perf:out-1", "perf:min:max"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", bad)
		}
	}
}

// TestDefaultSpecs: one model sweeps perf-vs-confidence; several sweep
// one primary axis each.
func TestDefaultSpecs(t *testing.T) {
	got := DefaultSpecs([]string{"m"})
	if len(got) != 2 || got[0].Variance || !got[1].Variance || !got[1].Minimize {
		t.Fatalf("single-model defaults = %+v", got)
	}
	got = DefaultSpecs([]string{"a", "b"})
	if len(got) != 2 || got[0].Model != "a" || got[1].Model != "b" || got[0].Variance || got[1].Variance {
		t.Fatalf("multi-model defaults = %+v", got)
	}
}
