package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/sweep"
)

// sweepStore builds a registry holding one trained model plus a job
// store with no exploration backend needs exercised.
func sweepStore(t *testing.T) (*JobStore, *Registry, *bundle.Bundle) {
	t.Helper()
	b := trainedBundle(t)
	reg := NewRegistry()
	if _, err := reg.Add("synth", b, CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	s := NewJobStore(reg, testBackend(0, nil), 2, 8, CoalesceOpts{})
	t.Cleanup(func() {
		s.Close()
		reg.Close()
	})
	return s, reg, b
}

// TestSweepJobMatchesInProcessRun: the served sweep must be the exact
// in-process engine result — same top-k, same frontier, bit for bit.
func TestSweepJobMatchesInProcessRun(t *testing.T) {
	s, _, b := sweepStore(t)
	info, err := s.SubmitSweep(SweepRequest{Model: "synth", TopK: 5, Workers: 3, Chunk: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != JobKindSweep {
		t.Fatalf("job kind %q", info.Kind)
	}
	done := awaitJob(t, s, info.ID)
	if done.Status != JobDone {
		t.Fatalf("sweep finished %s (%s)", done.Status, done.Error)
	}
	got, ok := done.Result.(*sweep.Result)
	if !ok {
		t.Fatalf("job result is %T, want *sweep.Result", done.Result)
	}

	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: 5, ChunkSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, want.TopK) || !reflect.DeepEqual(got.Frontier, want.Frontier) {
		t.Fatalf("served sweep diverged from in-process run:\n%+v\nvs\n%+v", got, want)
	}
	if done.Swept != sp.Size() || done.SweepTotal != sp.Size() {
		t.Fatalf("progress settled at %d/%d, want %d/%d", done.Swept, done.SweepTotal, sp.Size(), sp.Size())
	}
	if done.Model != "" {
		t.Fatalf("sweep job claims to have registered model %q", done.Model)
	}
	// The listing stays light: result documents come only from
	// single-job lookups.
	list := s.List()
	if len(list) != 1 || list[0].Result != nil {
		t.Fatalf("job listing carries a result document: %+v", list)
	}
	if list[0].Status != JobDone || list[0].Swept != sp.Size() {
		t.Fatalf("listing lost status/progress: %+v", list[0])
	}
}

// TestSweepSubmitValidation: malformed requests fail synchronously.
func TestSweepSubmitValidation(t *testing.T) {
	s, reg, _ := sweepStore(t)
	cases := map[string]SweepRequest{
		"both model and models": {Model: "synth", Models: []string{"synth"}},
		"unknown model":         {Model: "nope"},
		"empty models entry":    {Models: []string{""}},
		"oversized topk":        {Model: "synth", TopK: maxSweepTopK + 1},
		"negative chunk":        {Model: "synth", Chunk: -1},
		"negative workers":      {Model: "synth", Workers: -1},
		"bad metric model":      {Model: "synth", Metrics: []sweep.MetricSpec{{Model: "ghost"}}},
		"bad metric output":     {Model: "synth", Metrics: []sweep.MetricSpec{{Output: 4}}},
	}
	for label, req := range cases {
		if _, err := s.SubmitSweep(req); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
	// The sole model may be left implicit — and once a second model
	// exists, it may not.
	info, err := s.SubmitSweep(SweepRequest{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if done := awaitJob(t, s, info.ID); done.Status != JobDone {
		t.Fatalf("implicit-model sweep finished %s (%s)", done.Status, done.Error)
	}
	if _, err := reg.Add("second", trainedBundle(t), CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSweep(SweepRequest{}); err == nil {
		t.Fatal("ambiguous implicit model accepted")
	}
}

// sweepJobDoc is the part of a GET /v1/jobs/{id} document the sweep
// tests read.
type sweepJobDoc struct {
	Status JobStatus     `json:"status"`
	Error  string        `json:"error"`
	Result *sweep.Result `json:"result"`
}

// runSweepHTTP submits body to POST /v1/sweep and polls the job until
// it settles, returning its final document.
func runSweepHTTP(t *testing.T, url, body string) sweepJobDoc {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s returned %d", body, resp.StatusCode)
	}
	var submitted JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(url + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		var doc sweepJobDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if doc.Status != JobQueued && doc.Status != JobRunning {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck at %s", body, doc.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepHTTPEndToEnd drives POST /v1/sweep → poll /v1/jobs/{id} →
// read the result document, the curl workflow from the README.
func TestSweepHTTPEndToEnd(t *testing.T) {
	s, reg, _ := sweepStore(t)
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()

	body := `{"model":"synth","topk":3,"metrics":[{"name":"ipc"},{"name":"conf","variance":true,"minimize":true}]}`
	doc := runSweepHTTP(t, srv.URL, body)
	if doc.Status != JobDone {
		t.Fatalf("sweep finished %s (%s)", doc.Status, doc.Error)
	}
	res := doc.Result
	if res == nil {
		t.Fatal("done sweep carries no result document")
	}
	if res.Space != "synth" || res.Points != 40 {
		t.Fatalf("result covers %q/%d, want synth/40", res.Space, res.Points)
	}
	if len(res.Metrics) != 2 || res.Metrics[0].Name != "ipc" || !res.Metrics[1].Minimize {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
	if len(res.TopK) != 2 || len(res.TopK[0]) != 3 {
		t.Fatalf("topk shape %dx%d, want 2x3", len(res.TopK), len(res.TopK[0]))
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range res.TopK[0] {
		if len(p.Values) != 2 {
			t.Fatalf("leaderboard point %d carries %d values, want 2", p.Index, len(p.Values))
		}
	}

	// A server with no job store answers 503.
	bare := httptest.NewServer(New(reg))
	defer bare.Close()
	r2, err := http.Post(bare.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep without jobs returned %d, want 503", r2.StatusCode)
	}
}

// TestServerDefaultKernel pins the -kernel server default: a sweep job
// that leaves "kernel" unset runs the configured tier, while an
// explicit "exact" overrides the default back to the bit-identical
// kernel (the empty Result.Kernel).
func TestServerDefaultKernel(t *testing.T) {
	s, reg, _ := sweepStore(t)
	srv := NewWithJobs(reg, s)
	srv.SetDefaultKernel(ann.KernelFast32)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, tc := range []struct {
		body, want string
	}{
		{`{"model":"synth","topk":3,"chunk":16}`, ann.KernelFast32.String()},
		{`{"model":"synth","topk":3,"chunk":16,"kernel":"exact"}`, ""},
	} {
		doc := runSweepHTTP(t, ts.URL, tc.body)
		if doc.Status != JobDone {
			t.Fatalf("request %s finished %s (%s)", tc.body, doc.Status, doc.Error)
		}
		if doc.Result.Kernel != tc.want {
			t.Fatalf("request %s ran kernel %q, want %q", tc.body, doc.Result.Kernel, tc.want)
		}
	}
}

// TestSweepJobVarianceOnly: a sweep job whose only metric is the
// model's variance finishes done with the variance leaderboard of the
// default mean+variance sweep, and the server keeps serving afterwards.
// The engine scores inside its own worker goroutines, where nothing
// recovers a panic, so any panic on this path kills the process.
func TestSweepJobVarianceOnly(t *testing.T) {
	s, reg, b := sweepStore(t)
	ts := httptest.NewServer(NewWithJobs(reg, s))
	defer ts.Close()
	doc := runSweepHTTP(t, ts.URL,
		`{"model":"synth","topk":5,"chunk":16,"metrics":[{"name":"conf","model":"synth","variance":true,"minimize":true}]}`)
	if doc.Status != JobDone {
		t.Fatalf("variance-only sweep finished %s (%s)", doc.Status, doc.Error)
	}
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: 5, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := doc.Result
	if len(got.TopK) != 1 || len(got.TopK[0]) != len(want.TopK[1]) {
		t.Fatalf("variance-only leaderboards %v, want one of %d points", got.TopK, len(want.TopK[1]))
	}
	for i, p := range got.TopK[0] {
		q := want.TopK[1][i]
		if p.Index != q.Index || p.Values[0] != q.Values[1] {
			t.Fatalf("variance rank %d: job has point %d (%v), mean+variance sweep %d (%v)",
				i, p.Index, p.Values[0], q.Index, q.Values[1])
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the sweep: status %d", resp.StatusCode)
	}
}

// TestSweepHTTPErrorStatus maps validation failures onto 400/404, and
// the retired shard endpoint onto 404.
func TestSweepHTTPErrorStatus(t *testing.T) {
	s, reg, _ := sweepStore(t)
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()
	for body, want := range map[string]int{
		`{"model":"ghost"}`:            http.StatusNotFound,
		`{"model":"synth","topk"`:      http.StatusBadRequest,
		`{"model":"synth","x":1}`:      http.StatusBadRequest,
		`{"model":"synth","chunk":-2}`: http.StatusBadRequest,
		`{"models":["synth","synth"]}`: http.StatusBadRequest,
	} {
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %s returned %d, want %d", body, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/sweep/shard", "application/json", strings.NewReader(`{"model":"synth"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/sweep/shard returned %d, want 404", resp.StatusCode)
	}
}
