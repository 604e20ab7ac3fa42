package main

import (
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/serve"
	"repro/internal/studies"
)

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {90, 37}, {25, 17.5},
	} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if !slices.Equal(v, []float64{40, 10, 30, 20}) {
		t.Error("percentile reordered its input")
	}
}

func TestSupportedCountsSamplesBeyond(t *testing.T) {
	// p90 of n samples sits at rank 0.9(n-1); it is supported once ten
	// samples lie strictly above that rank.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{91, 90, false}, // rank 81: samples 82..90 are 9
		{92, 90, true},  // rank 81.9: samples 82..91 are 10
		{100, 90, true},
		{901, 99, false}, // rank 891: samples 892..900 are 9
		{902, 99, true},
		{20, 50, true}, // rank 9.5: samples 10..19
		{19, 50, false},
		{0, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestHighestPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{20, 50, true},
		{40, 75, true},
		{150, 90, true},
		{250, 95, true},
		{5000, 99, true},
		{20000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if !ok {
			continue
		}
		// At least ten of n distinct samples exceed the percentile.
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(i)
		}
		q := percentile(v, got)
		above := 0
		for _, x := range v {
			if x > q {
				above++
			}
		}
		if above < minBeyond {
			t.Errorf("n=%d p%g: %d samples above, want >= %d", c.n, got, above, minBeyond)
		}
	}
}

func span(id, parent uint64, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "explore", 0, 100),
		span(2, 1, "sim", 10, 40),
		span(3, 1, "sim", 30, 60),      // overlaps the first sim
		span(4, 1, "train", 35, 50),    // inside both
		span(5, 1, "sweep", 90, 120),   // sticks out of the parent
		span(6, 2, "inner", 15, 20),    // grandchild: counts only for span 2
		span(7, 0, "other-root", 0, 5), // unrelated unit
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 40 * time.Millisecond, // 100 - |[10,60] ∪ [90,100]|
		2: 25 * time.Millisecond, // 30 - 5
		3: 30 * time.Millisecond,
		5: 30 * time.Millisecond,
		7: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	totals := layerTotals(spans)
	if got := totals[1]["sim"]; got != 55*time.Millisecond {
		t.Errorf("sim total under root 1 = %v, want 55ms (25+30)", got)
	}
	if got := totals[1]["inner"]; got != 5*time.Millisecond {
		t.Errorf("grandchild total under root 1 = %v, want 5ms", got)
	}
	if _, ok := totals[7]["sim"]; ok {
		t.Error("root 7 picked up another unit's spans")
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	o := tr.Begin("x", 0)
	tr.End(o)
	tr.Record("y", o.id, time.Now(), time.Now())
	if len(tr.Spans()) != 0 || o.id != 0 {
		t.Fatal("a nil tracer recorded spans")
	}
	tr = newTracer()
	root := tr.Begin("root", 0)
	child := tr.Begin("child", root.id)
	tr.End(child)
	tr.End(root)
	got := tr.Spans()
	if len(got) != 2 || got[0].Parent != root.id || got[1].ID != root.id || got[0].End > got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}

func TestZipfScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	const points, n = 23040, 20000
	a := zipfSchedule(7, points, n, 1.1)
	b := zipfSchedule(7, points, n, 1.1)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, zipfSchedule(8, points, n, 1.1)) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := make(map[int32]int)
	for _, x := range a {
		if x < 0 || int(x) >= points {
			t.Fatalf("index %d outside the space", x)
		}
		counts[x]++
	}
	// Skew: the hottest point takes 1/H(23040, 1.1) ≈ 14.5% of draws.
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if share := float64(top) / n; share < 0.13 || share > 0.16 {
		t.Errorf("hottest point's share %.3f, want about 0.145", share)
	}
	// The seeded scatter moves the hot set off index 0.
	if counts[0] == top {
		t.Error("rank 1 landed on index 0; ranks are not scattered")
	}
}

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(`# HELP repro_cache_hits_total Exact prediction cache hits.
# TYPE repro_cache_hits_total counter
repro_cache_hits_total 10
repro_model_flushes_total{model="fixture"} 4
repro_coalesce_batch_size_bucket{model="fixture",le="+Inf"} 4

`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm("repro_cache_hits_total 25\nrepro_model_flushes_total{model=\"fixture\"} 1e+06\n")
	if err != nil {
		t.Fatal(err)
	}
	if d, err := after.delta(before, "repro_cache_hits_total"); err != nil || d != 15 {
		t.Errorf("hits delta = %v, %v; want 15", d, err)
	}
	if d, err := after.delta(before, `repro_model_flushes_total{model="fixture"}`); err != nil || d != 1e6-4 {
		t.Errorf("flushes delta = %v, %v; want 999996", d, err)
	}
	if before[`repro_coalesce_batch_size_bucket{model="fixture",le="+Inf"}`] != 4 {
		t.Error("labelled bucket series not parsed")
	}
	if _, err := after.delta(before, "repro_cache_misses_total"); err == nil {
		t.Error("delta of a missing series should fail")
	}
	if _, err := parseProm("repro_cache_hits_total many\n"); err == nil {
		t.Error("a non-numeric value should fail to parse")
	}
	if _, err := parseProm("lonely\n"); err == nil {
		t.Error("a sample line without a value should fail to parse")
	}
}

// The series the serve workload reads must exist in the server's real
// exposition, or its deltas fail at run time.
func TestServeMetricsCarryTheSeriesTheBenchmarkReads(t *testing.T) {
	st := studies.MemorySystem()
	enc := encoding.NewEncoder(st.Space)
	var xs, ys [][]float64
	for i := 0; i < 30; i++ {
		idx := i * 701
		xs = append(xs, enc.EncodeIndex(idx, nil))
		ys = append(ys, []float64{1 + float64(i%7)/10})
	}
	cfg := core.DefaultModelConfig()
	cfg.Workers = 1
	cfg.Train.MaxEpochs = 3
	ens, err := core.TrainEnsemble(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(st.Space, ens, bundle.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.EnableCache(16)
	if _, err := reg.Add(fixtureName, b, serve.CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(serve.New(reg))
	defer srv.Close()
	ep := &endpoint{base: srv.URL, scraper: srv.Client()}
	before, err := ep.scrape()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(`{"point":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	after, err := ep.scrape()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"repro_cache_hits_total",
		"repro_cache_misses_total",
		"repro_cache_evictions_total",
		`repro_model_flushes_total{model="fixture"}`,
		`repro_coalesce_batch_size_sum{model="fixture"}`,
		`repro_ratelimit_rejections_total{reason="rate"}`,
		`repro_ratelimit_rejections_total{reason="inflight"}`,
	} {
		if _, err := after.delta(before, series); err != nil {
			t.Error(err)
		}
	}
	if d, _ := after.delta(before, "repro_cache_misses_total"); d != 1 {
		t.Errorf("one uncached predict moved misses by %v, want 1", d)
	}
}
