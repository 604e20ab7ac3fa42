package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

func testSpace() *space.Space {
	return space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

func testTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	v := 0.4 + 0.3*math.Log2(sp.Value(c, 0)) + 0.1*sp.Value(c, 1)
	if sp.LevelName(c, 2) == "y" {
		v *= 1.25
	}
	return v
}

func trainedBundle(t testing.TB) *bundle.Bundle {
	t.Helper()
	sp := testSpace()
	enc := encoding.NewEncoder(sp)
	rng := stats.NewRNG(23)
	train := sp.Sample(rng, 36)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{testTarget(sp, idx)}
	}
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 50
	cfg.Train.Patience = 12
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(sp, ens, bundle.Meta{Study: "synth", App: "unit", Metric: "IPC", Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestServer registers one trained model under "synth" and returns
// the HTTP test server around it.
func newTestServer(t testing.TB, opts CoalesceOpts) (*httptest.Server, *Registry, *bundle.Bundle) {
	t.Helper()
	b := trainedBundle(t)
	reg := NewRegistry()
	if _, err := reg.Add("synth", b, opts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, reg, b
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return resp, out
}

func floats(t *testing.T, v any) []float64 {
	t.Helper()
	arr, ok := v.([]any)
	if !ok {
		t.Fatalf("expected JSON array, got %T", v)
	}
	out := make([]float64, len(arr))
	for i, e := range arr {
		f, ok := e.(float64)
		if !ok {
			t.Fatalf("element %d is %T, not a number", i, e)
		}
		out[i] = f
	}
	return out
}

// TestBatchPredictBitIdentical is the serving acceptance property: the
// HTTP batch endpoint must return exactly what in-process PredictBatch
// returns on the same points (JSON float64 round-trips are exact).
func TestBatchPredictBitIdentical(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	points := []int{0, 3, 7, 11, 19, 23, 31, 39}
	width := b.Encoder.Width()
	xs := make([]float64, len(points)*width)
	for i, p := range points {
		b.Encoder.EncodeIndex(p, xs[i*width:(i+1)*width])
	}
	want := make([]float64, len(points))
	b.Ensemble.PredictBatch(0, xs, len(points), want, nil)

	body, _ := json.Marshal(map[string]any{"model": "synth", "points": points})
	resp, out := postJSON(t, ts.URL+"/v1/predict/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	got := floats(t, out["predictions"])
	if len(got) != len(want) {
		t.Fatalf("%d predictions for %d points", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: served %v, in-process %v", points[i], got[i], want[i])
		}
	}
}

// TestChoicesAddressingMatchesIndexAddressing pins the two addressing
// modes to each other and to the space's index bijection.
func TestChoicesAddressingMatchesIndexAddressing(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	choices := []int{2, 4, 1}
	idx := b.Space.Index(choices)

	body, _ := json.Marshal(map[string]any{"choices": [][]int{choices}})
	resp, byChoices := postJSON(t, ts.URL+"/v1/predict", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, byChoices)
	}
	if got := int(byChoices["point"].(float64)); got != idx {
		t.Fatalf("choices resolved to point %d, Index says %d", got, idx)
	}
	body, _ = json.Marshal(map[string]any{"point": idx})
	resp, byIndex := postJSON(t, ts.URL+"/v1/predict", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, byIndex)
	}
	if byChoices["prediction"] != byIndex["prediction"] {
		t.Fatalf("prediction differs by addressing mode: %v vs %v",
			byChoices["prediction"], byIndex["prediction"])
	}
	if want := b.Ensemble.Predict(b.Encoder.EncodeIndex(idx, nil)); byIndex["prediction"].(float64) != want {
		t.Fatalf("served %v, in-process Predict %v", byIndex["prediction"], want)
	}
}

func TestVarianceEndpointMatchesBatchKernel(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	points := []int{1, 5, 9, 13}
	width := b.Encoder.Width()
	xs := make([]float64, len(points)*width)
	for i, p := range points {
		b.Encoder.EncodeIndex(p, xs[i*width:(i+1)*width])
	}
	wantMean, wantVar := make([]float64, len(points)), make([]float64, len(points))
	b.Ensemble.PredictBatch(0, xs, len(points), wantMean, wantVar)

	body, _ := json.Marshal(map[string]any{"points": points})
	resp, out := postJSON(t, ts.URL+"/v1/variance", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	gotMean := floats(t, out["means"])
	gotVar := floats(t, out["variances"])
	for i := range points {
		if gotMean[i] != wantMean[i] || gotVar[i] != wantVar[i] {
			t.Fatalf("row %d: served (%v,%v), in-process (%v,%v)",
				i, gotMean[i], gotVar[i], wantMean[i], wantVar[i])
		}
	}
}

// TestConcurrentPredictsCoalesceAndMatch floods /v1/predict from many
// goroutines: every response must equal the in-process per-point
// prediction, and the coalescer must have served them in fewer batched
// flushes than requests.
func TestConcurrentPredictsCoalesceAndMatch(t *testing.T) {
	ts, reg, b := newTestServer(t, CoalesceOpts{Linger: 5 * time.Millisecond})
	const requests = 40 // the whole synthetic space
	want := make([]float64, requests)
	for i := range want {
		want[i] = b.Ensemble.Predict(b.Encoder.EncodeIndex(i, nil))
	}
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"point":%d}`, i)
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewBufferString(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("point %d: status %d: %v", i, resp.StatusCode, out)
				return
			}
			if got := out["prediction"].(float64); got != want[i] {
				errs <- fmt.Errorf("point %d: served %v, in-process %v", i, got, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m, err := reg.Get("synth")
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Requests != requests {
		t.Fatalf("coalescer answered %d requests, want %d", st.Requests, requests)
	}
	if st.Flushes >= requests {
		t.Fatalf("no coalescing happened: %d flushes for %d concurrent requests", st.Flushes, requests)
	}
	t.Logf("coalesced %d requests into %d flushes", st.Requests, st.Flushes)
}

func TestMalformedRequestsRejected(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	outOfRange := b.Space.Size()
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"bad json", "/v1/predict", `{"point":`, http.StatusBadRequest},
		{"unknown field", "/v1/predict", `{"pt":3}`, http.StatusBadRequest},
		{"no addressing", "/v1/predict", `{}`, http.StatusBadRequest},
		{"both addressings", "/v1/predict", `{"point":1,"choices":[[0,0,0]]}`, http.StatusBadRequest},
		{"stray points array", "/v1/predict", `{"point":1,"points":[2,3]}`, http.StatusBadRequest},
		{"point out of range", "/v1/predict", fmt.Sprintf(`{"point":%d}`, outOfRange), http.StatusBadRequest},
		{"negative point", "/v1/predict", `{"point":-1}`, http.StatusBadRequest},
		{"short choices", "/v1/predict", `{"choices":[[0]]}`, http.StatusBadRequest},
		{"choice out of range", "/v1/predict", `{"choices":[[0,0,9]]}`, http.StatusBadRequest},
		{"unknown model", "/v1/predict", `{"model":"nope","point":1}`, http.StatusNotFound},
		{"batch single point", "/v1/predict/batch", `{"point":1}`, http.StatusBadRequest},
		{"batch empty", "/v1/predict/batch", `{"points":[]}`, http.StatusBadRequest},
		{"batch bad member", "/v1/predict/batch", fmt.Sprintf(`{"points":[0,%d]}`, outOfRange), http.StatusBadRequest},
		{"variance bad choices", "/v1/variance", `{"choices":[[0,0,0],[0,9,0]]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, out := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%v)", c.name, resp.StatusCode, c.status, out)
		}
		if _, hasErr := out["error"]; !hasErr && resp.StatusCode != http.StatusOK {
			t.Errorf("%s: error response carries no error message", c.name)
		}
	}

	// Wrong method on a POST-only endpoint.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: status %d, want 405", resp.StatusCode)
	}
}

func TestModelsAndHealthz(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" || health["models"].(float64) != 1 {
		t.Fatalf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models struct {
		Models []modelInfo `json:"models"`
	}
	json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if len(models.Models) != 1 {
		t.Fatalf("listed %d models, want 1", len(models.Models))
	}
	m := models.Models[0]
	if m.Name != "synth" || m.Space != "synth" || m.Points != b.Space.Size() ||
		m.Inputs != b.Encoder.Width() || m.Members != b.Ensemble.Members() {
		t.Fatalf("model info mismatch: %+v", m)
	}
	if m.Estimate != b.Ensemble.Estimate() {
		t.Fatalf("estimate not surfaced: %+v", m.Estimate)
	}
}

func TestSensitivityEndpoint(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	resp, err := http.Get(ts.URL + "/v1/sensitivity?bases=6&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Model string                 `json:"model"`
		Axes  []core.AxisSensitivity `json:"axes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Axes) != b.Space.NumParams() {
		t.Fatalf("%d axes for %d params", len(out.Axes), b.Space.NumParams())
	}
	for i, a := range out.Axes {
		if a.Rank != i+1 {
			t.Fatalf("axes not returned ranked: %+v", out.Axes)
		}
		if a.Bases != 6 {
			t.Fatalf("axis %s swept %d bases, want 6", a.Name, a.Bases)
		}
	}

	resp2, out2 := postJSON(t, ts.URL+"/v1/sensitivity", `{"bases":0,"seed":`)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed sensitivity POST: status %d (%v)", resp2.StatusCode, out2)
	}
	// Both methods share one contract: non-numeric or negative bases are
	// rejected, never silently defaulted.
	for _, url := range []string{"/v1/sensitivity?bases=zero", "/v1/sensitivity?bases=-3"} {
		resp3, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", url, resp3.StatusCode)
		}
	}
	resp4, out4 := postJSON(t, ts.URL+"/v1/sensitivity", `{"bases":-3}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST negative bases: status %d (%v)", resp4.StatusCode, out4)
	}
}

// TestRegistryResolution covers default-model resolution and duplicate
// registration.
func TestRegistryResolution(t *testing.T) {
	b := trainedBundle(t)
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Add("", b, CoalesceOpts{}); err == nil {
		t.Fatal("registry accepted an empty model name")
	}
	if _, err := reg.Add("one", b, CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("one", b, CoalesceOpts{}); err == nil {
		t.Fatal("registry accepted a duplicate name")
	}
	if m, err := reg.Get(""); err != nil || m.Name != "one" {
		t.Fatalf("single-model default resolution failed: %v %v", m, err)
	}
	if _, err := reg.Add("two", b, CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(""); err == nil {
		t.Fatal("empty model name resolved despite two models")
	}
	if _, err := reg.Get("nope"); err == nil {
		t.Fatal("unknown model resolved")
	}
}

// TestCoalescerDirect exercises the dispatcher without HTTP in between:
// concurrent predicts through one coalescer match the ensemble and
// shut down cleanly.
func TestCoalescerDirect(t *testing.T) {
	b := trainedBundle(t)
	c := newCoalescer(b.Ensemble, b.Encoder.Width(), CoalesceOpts{Linger: 2 * time.Millisecond, MaxBatch: 8}, nil)
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := b.Encoder.EncodeIndex(i, nil)
			wantMean, wantVar := b.Ensemble.PredictVariance(x)
			mean, variance, err := c.predict(x, cacheKey{})
			if err != nil {
				errs <- err
				return
			}
			if mean != wantMean || variance != wantVar {
				errs <- fmt.Errorf("point %d: coalesced (%v,%v), direct (%v,%v)", i, mean, variance, wantMean, wantVar)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c.close()
	if _, _, err := c.predict(b.Encoder.EncodeIndex(0, nil), cacheKey{}); err == nil {
		t.Fatal("predict succeeded on a closed coalescer")
	}
}
