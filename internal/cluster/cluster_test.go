package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func testSpace() *space.Space {
	return space.New("cluster-synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

var (
	bundleOnce sync.Once
	sharedB    *bundle.Bundle
)

// clusterBundle trains one quick model per process; every fake node
// serves it, which is exactly the deployment contract (identical
// registries).
func clusterBundle(t testing.TB) *bundle.Bundle {
	bundleOnce.Do(func() {
		sp := testSpace()
		enc := encoding.NewEncoder(sp)
		rng := stats.NewRNG(19)
		train := sp.Sample(rng, 40)
		x := make([][]float64, len(train))
		y := make([][]float64, len(train))
		for i, idx := range train {
			x[i] = enc.EncodeIndex(idx, nil)
			c := sp.Choices(idx)
			v := 0.4 + 0.3*math.Log2(sp.Value(c, 0)) + 0.1*sp.Value(c, 1)*sp.Value(c, 2)
			if sp.LevelName(c, 3) == "y" {
				v *= 1.25
			}
			y[i] = []float64{v}
		}
		cfg := core.DefaultModelConfig()
		cfg.Train.MaxEpochs = 60
		cfg.Train.Patience = 15
		cfg.Seed = 11
		ens, err := core.TrainEnsemble(x, y, cfg)
		if err != nil {
			panic(err)
		}
		b, err := bundle.New(sp, ens, bundle.Meta{Study: "synth", Metric: "perf"})
		if err != nil {
			panic(err)
		}
		sharedB = b
	})
	return sharedB
}

// newNode spins one in-process serve node holding the shared bundle
// under "synth", optionally wrapped by mw.
func newNode(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	if _, err := reg.Add("synth", clusterBundle(t), serve.CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	var h http.Handler = serve.New(reg)
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts
}

// localRun is the single-process ground truth every cluster result
// must match bit for bit.
func localRun(t *testing.T, topk, chunk int) *sweep.Result {
	t.Helper()
	b := clusterBundle(t)
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: topk, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// canonJSON renders a result with the timing fields — the only
// legitimately varying ones — zeroed, for byte-exact comparison.
func canonJSON(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	r := *res
	r.Elapsed, r.PointsPerSec = 0, 0
	buf, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestClusterMatchesSingleProcess is the tentpole guarantee: a
// coordinated sweep over 1, 2 and 3 nodes produces byte-identical
// JSON to the in-process sweep.Run.
func TestClusterMatchesSingleProcess(t *testing.T) {
	want := canonJSON(t, localRun(t, 5, 8))
	for _, n := range []int{1, 2, 3} {
		var nodes []string
		for i := 0; i < n; i++ {
			nodes = append(nodes, newNode(t, nil).URL)
		}
		var progress []int
		coord, err := New(Config{
			Nodes:       nodes,
			Request:     serve.SweepRequest{Model: "synth", TopK: 5, Chunk: 8},
			ShardPoints: 16,
			Logf:        t.Logf,
			OnProgress:  func(done, total int) { progress = append(progress, done) },
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run(context.Background())
		if err != nil {
			t.Fatalf("nodes=%d: %v", n, err)
		}
		if got := canonJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("nodes=%d: cluster result diverged\ngot  %s\nwant %s", n, got, want)
		}
		for i := 1; i < len(progress); i++ {
			if progress[i] <= progress[i-1] {
				t.Fatalf("nodes=%d: progress not monotone: %v", n, progress)
			}
		}
		if len(progress) == 0 || progress[len(progress)-1] != res.Points {
			t.Fatalf("nodes=%d: progress ended at %v, want %d", n, progress, res.Points)
		}
		if res.PointsPerSec <= 0 || res.Elapsed <= 0 {
			t.Fatalf("nodes=%d: missing throughput stamp", n)
		}
	}
}

// localKernelRun is localRun with an explicit kernel tier.
func localKernelRun(t *testing.T, topk, chunk int, mode ann.KernelMode) *sweep.Result {
	t.Helper()
	b := clusterBundle(t)
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: topk, ChunkSize: chunk, Kernel: mode})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterFast32Sweep is the kernel-tier cluster smoke test: a
// fast32 sweep over two nodes must merge byte-identically to the
// single-process fast32 run, because the kernel tier and the wire
// format are orthogonal to the reduction's bits.
func TestClusterFast32Sweep(t *testing.T) {
	want := canonJSON(t, localKernelRun(t, 5, 8, ann.KernelFast32))
	a, b := newNode(t, nil), newNode(t, nil)
	coord, err := New(Config{
		Nodes:       []string{a.URL, b.URL},
		Request:     serve.SweepRequest{Model: "synth", TopK: 5, Chunk: 8, Kernel: "fast32"},
		ShardPoints: 16,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := canonJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("fast32 cluster diverged from local run\ngot  %s\nwant %s", got, want)
	}
	if res.Kernel != ann.KernelFast32.String() {
		t.Fatalf("result kernel %q, want fast32", res.Kernel)
	}
}

// failingNode wraps a serve handler so shard requests start failing
// after the first `healthy` of them — a node dying mid-sweep. mode
// "500" answers errors; mode "abort" severs the connection like a
// crashed process. The returned channel closes once the first failing
// call has been answered.
func failingNode(healthy int64, mode string) (func(http.Handler) http.Handler, *atomic.Int64, <-chan struct{}) {
	var calls atomic.Int64
	failed := make(chan struct{})
	var once sync.Once
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep/shard" && calls.Add(1) > healthy {
				defer once.Do(func() { close(failed) })
				if mode == "abort" {
					panic(http.ErrAbortHandler)
				}
				w.WriteHeader(http.StatusInternalServerError)
				w.Write([]byte(`{"error":"synthetic node failure"}`))
				return
			}
			h.ServeHTTP(w, r)
		})
	}, &calls, failed
}

// heldNode wraps a serve handler so shard requests wait until release
// closes, or until the coordinator abandons them.
func heldNode(release <-chan struct{}) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep/shard" {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestClusterSurvivesNodeFailure kills one of three nodes mid-sweep —
// both failure styles — and requires the retried, redistributed
// result to stay byte-identical to the single-process run. The flaky
// node fails on its second shard, so the healthy nodes hold their
// shards until it has: otherwise they could drain the queue first and
// the failure path would never run.
func TestClusterSurvivesNodeFailure(t *testing.T) {
	want := canonJSON(t, localRun(t, 5, 8))
	for _, mode := range []string{"500", "abort"} {
		mw, calls, failed := failingNode(1, mode)
		flaky := newNode(t, mw)
		nodes := []string{newNode(t, heldNode(failed)).URL, flaky.URL, newNode(t, heldNode(failed)).URL}
		coord, err := New(Config{
			Nodes:        nodes,
			Request:      serve.SweepRequest{Model: "synth", TopK: 5, Chunk: 8},
			ShardPoints:  16,
			InFlight:     1,
			NodeFailures: 1,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run(context.Background())
		if err != nil {
			t.Fatalf("mode=%s: sweep failed despite two surviving nodes: %v", mode, err)
		}
		if got := canonJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("mode=%s: post-failure result diverged\ngot  %s\nwant %s", mode, got, want)
		}
		if calls.Load() < 2 {
			t.Fatalf("mode=%s: flaky node saw %d shard calls; the failure path never ran", mode, calls.Load())
		}
	}
}

// TestClusterProbeDropsBrokenNode: a node that cannot run any shard is
// retired by the strike path on its first failure, with no startup
// probe, and the sweep proceeds on the healthy node. The healthy node
// holds its shards until the broken one has failed, so the failure
// path always runs.
func TestClusterProbeDropsBrokenNode(t *testing.T) {
	want := canonJSON(t, localRun(t, 5, 8))
	mw, calls, failed := failingNode(0, "500") // fails every shard
	coord, err := New(Config{
		Nodes:        []string{newNode(t, mw).URL, newNode(t, heldNode(failed)).URL},
		Request:      serve.SweepRequest{Model: "synth", TopK: 5, Chunk: 8},
		ShardPoints:  16,
		InFlight:     1,
		NodeFailures: 1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := canonJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("result diverged after dropping the broken node\ngot  %s\nwant %s", got, want)
	}
	if calls.Load() != 1 {
		t.Fatalf("broken node saw %d shard calls, want exactly 1 before it was dropped", calls.Load())
	}
}

// TestClusterAllNodesFail: when no node can run shards, the sweep
// fails with an error instead of hanging.
func TestClusterAllNodesFail(t *testing.T) {
	mwA, _, _ := failingNode(0, "500")
	mwB, _, _ := failingNode(0, "500")
	coord, err := New(Config{
		Nodes:        []string{newNode(t, mwA).URL, newNode(t, mwB).URL},
		Request:      serve.SweepRequest{Model: "synth"},
		ShardPoints:  16,
		InFlight:     1,
		NodeFailures: 1,
		Retries:      2,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cluster:") {
		t.Fatalf("total failure err = %v", err)
	}
}

// TestClusterRejectedRequestFailsFast: a request every node would
// deterministically 400 (here: a metric reading a missing output
// column) fails the sweep with the server's message instead of
// striking healthy nodes until the retry budget drains.
func TestClusterRejectedRequestFailsFast(t *testing.T) {
	var retirements atomic.Int64
	coord, err := New(Config{
		Nodes: []string{newNode(t, nil).URL, newNode(t, nil).URL},
		Request: serve.SweepRequest{
			Metrics: []sweep.MetricSpec{{Model: "synth", Output: 5}},
		},
		ShardPoints: 16,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "retiring") {
				retirements.Add(1)
			}
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "output") {
		t.Fatalf("rejected request err = %v", err)
	}
	if retirements.Load() != 0 {
		t.Fatalf("a deterministic 400 retired %d healthy node(s)", retirements.Load())
	}
	// Bounds every node enforces fail locally, before any dispatch.
	if _, err := New(Config{Nodes: []string{"http://x"}, Request: serve.SweepRequest{Chunk: 1 << 21}}); err == nil || !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("oversized chunk err = %v", err)
	}
}

// TestClusterDiscoveryErrors: a request naming a model no node serves
// fails at discovery, before any shard is dispatched.
func TestClusterDiscoveryErrors(t *testing.T) {
	coord, err := New(Config{
		Nodes:   []string{newNode(t, nil).URL},
		Request: serve.SweepRequest{Model: "nope"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background()); err == nil || !strings.Contains(err.Error(), `model "nope"`) {
		t.Fatalf("unknown model err = %v", err)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := New(Config{Nodes: []string{"http://a", "http://a"}}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := New(Config{Nodes: []string{"://bad"}}); err == nil {
		t.Fatal("malformed node URL accepted")
	}
}

// TestClusterCancel: cancelling the context aborts the sweep.
func TestClusterCancel(t *testing.T) {
	coord, err := New(Config{
		Nodes:   []string{newNode(t, nil).URL},
		Request: serve.SweepRequest{Model: "synth"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.Run(ctx); err == nil {
		t.Fatal("cancelled sweep returned a result")
	}
}

// TestPlanShards: shards tile [0,size) exactly, in order, with every
// interior boundary on an absolute chunk multiple.
func TestPlanShards(t *testing.T) {
	rng := stats.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(5000)
		chunk := 1 + rng.Intn(64)
		shardPts := rng.Intn(3) * (1 + rng.Intn(200)) // 0 = auto, sometimes unaligned
		slots := 1 + rng.Intn(6)
		shards := planShards(size, chunk, shardPts, slots)
		at := 0
		for i, sh := range shards {
			if sh.id != i || sh.start != at || sh.end <= sh.start {
				t.Fatalf("size=%d chunk=%d: shard %d is [%d,%d) at offset %d", size, chunk, i, sh.start, sh.end, at)
			}
			if sh.end != size && sh.end%chunk != 0 {
				t.Fatalf("size=%d chunk=%d: boundary %d not chunk-aligned", size, chunk, sh.end)
			}
			at = sh.end
		}
		if at != size {
			t.Fatalf("size=%d chunk=%d: shards cover up to %d", size, chunk, at)
		}
	}
	// Auto-planned shards are capped: a huge space must not produce
	// shards that outgrow the dispatch timeout.
	for _, sh := range planShards(1<<30, sweep.DefaultChunkSize, 0, 2) {
		if n := sh.end - sh.start; n > DefaultMaxShardPoints+sweep.DefaultChunkSize {
			t.Fatalf("auto shard [%d,%d) has %d points, cap is %d", sh.start, sh.end, n, DefaultMaxShardPoints)
		}
	}
}

// throttlingNode wraps a serve handler so the first `shed` shard
// requests answer 429 with a Retry-After hint — a node under admission
// control pushing back without failing.
func throttlingNode(shed int64) (func(http.Handler) http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep/shard" && calls.Add(1) <= shed {
				w.Header().Set("Retry-After", "0") // clamped to the 100ms floor
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(`{"error":"admission control: rate"}`))
				return
			}
			h.ServeHTTP(w, r)
		})
	}, &calls
}

// TestClusterHonorsRetryAfter: a 429 is back-pressure, not a failure.
// The only node sheds the first three shard requests; with
// NodeFailures=1 a single mischarged strike would retire it and fail
// the sweep, so success here proves throttling never touches the
// strike ledger — and the result still matches the single-process run
// bit for bit.
func TestClusterHonorsRetryAfter(t *testing.T) {
	want := canonJSON(t, localRun(t, 5, 8))
	mw, calls := throttlingNode(3)
	coord, err := New(Config{
		Nodes:        []string{newNode(t, mw).URL},
		Request:      serve.SweepRequest{Model: "synth", TopK: 5, Chunk: 8},
		ShardPoints:  16,
		InFlight:     1,
		NodeFailures: 1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("sweep failed under throttling: %v", err)
	}
	if got := canonJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("throttled result diverged\ngot  %s\nwant %s", got, want)
	}
	if calls.Load() < 4 {
		t.Fatalf("node saw %d shard calls; the 429 path never ran", calls.Load())
	}
}

// TestParseRetryAfter pins the header parsing and its clamp, across
// both RFC 9110 forms: delta-seconds and HTTP-date.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, time.March, 5, 12, 0, 0, 0, time.UTC)
	httpDate := func(d time.Duration) string {
		return now.Add(d).UTC().Format(http.TimeFormat)
	}
	cases := []struct {
		name, h string
		want    time.Duration
	}{
		{"delta seconds", "2", 2 * time.Second},
		{"delta with spaces", " 3 ", 3 * time.Second},
		{"delta zero clamps up", "0", minRetryAfter},
		{"delta negative clamps up", "-5", minRetryAfter},
		{"delta huge clamps down", "9999", maxRetryAfter},
		{"date ahead", httpDate(3 * time.Second), 3 * time.Second},
		{"date far ahead clamps down", httpDate(time.Hour), maxRetryAfter},
		{"date in the past clamps up", httpDate(-time.Minute), minRetryAfter},
		{"date now clamps up", httpDate(0), minRetryAfter},
		{"date RFC 850 form", now.Add(2 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), 2 * time.Second},
		{"date ANSI C form", now.Add(4 * time.Second).UTC().Format(time.ANSIC), 4 * time.Second},
		{"absent", "", time.Second},
		{"garbage", "garbage", time.Second},
		{"malformed date", "Wed, 99 Xxx 2026 12:00:00 GMT", time.Second},
	}
	for _, tc := range cases {
		if got := parseRetryAfterAt(tc.h, now); got != tc.want {
			t.Errorf("%s: parseRetryAfterAt(%q) = %v, want %v", tc.name, tc.h, got, tc.want)
		}
	}
	// The wall-clock entry point applies the same clamp.
	if got := parseRetryAfter("2"); got != 2*time.Second {
		t.Errorf("parseRetryAfter(2) = %v", got)
	}
}
