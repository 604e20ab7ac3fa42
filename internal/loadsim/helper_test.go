package loadsim

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/stats"
)

// trainedBundle builds a small real ensemble over a synthetic space —
// the same shape internal/serve's tests use — so harness tests drive
// the true serving stack, coalescer and all.
func trainedBundle(t testing.TB) *bundle.Bundle {
	t.Helper()
	sp := space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
	enc := encoding.NewEncoder(sp)
	rng := stats.NewRNG(23)
	train := sp.Sample(rng, 36)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		c := sp.Choices(idx)
		v := 0.4 + 0.3*math.Log2(sp.Value(c, 0)) + 0.1*sp.Value(c, 1)
		if sp.LevelName(c, 2) == "y" {
			v *= 1.25
		}
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{v}
	}
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 50
	cfg.Train.Patience = 12
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(sp, ens, bundle.Meta{Study: "synth", App: "load", Metric: "IPC", Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newServeTarget spins up a real in-process serve server over a trained
// bundle and returns its base URL.
func newServeTarget(t testing.TB) string {
	t.Helper()
	b := trainedBundle(t)
	reg := serve.NewRegistry()
	if _, err := reg.Add("synth", b, serve.CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts.URL
}

// stubTarget is a minimal fake serve node: instant canned answers, so
// schedule-focused tests are not bound by model inference. failEvery>0
// makes every Nth prediction request answer 500.
func stubTarget(t testing.TB, points int, failEvery int64) (string, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"models":[{"name":"stub","points":` + strconv.Itoa(points) + `}]}`))
	})
	answer := func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		if failEvery > 0 && n%failEvery == 0 {
			http.Error(w, `{"error":"stub failure"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"prediction":1}`))
	}
	mux.HandleFunc("POST /v1/predict", answer)
	mux.HandleFunc("POST /v1/predict/batch", answer)
	mux.HandleFunc("POST /v1/variance", answer)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, &served
}

// mustPattern parses a pattern spec or fails the test.
func mustPattern(t testing.TB, spec string, dur time.Duration) Pattern {
	t.Helper()
	p, err := ParsePattern(spec, dur)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustEvents parses an event spec or fails the test.
func mustEvents(t testing.TB, spec string, dur time.Duration) []Event {
	t.Helper()
	evs, err := ParseEvents(spec, dur)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}
