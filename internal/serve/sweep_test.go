package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/sweep"
)

// sweepStore builds a registry holding one trained model plus an idle
// job store, so the sweep tests run against a server that has one.
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

// postSweep posts body to url's /v1/sweep and returns the raw 200
// document; any other status fails the test.
func postSweep(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep %s answered %d, want 200: %s", body, resp.StatusCode, raw)
	}
	return raw
}

// runSweepHTTP posts body to POST /v1/sweep and decodes the answered
// sweep document.
func runSweepHTTP(t *testing.T, url, body string) *sweep.Result {
	t.Helper()
	var res sweep.Result
	if err := json.Unmarshal(postSweep(t, url, body), &res); err != nil {
		t.Fatal(err)
	}
	return &res
}

// TestSweepMatchesInProcessRun: the served sweep must be the exact
// in-process engine result — same top-k, same frontier, bit for bit.
func TestSweepMatchesInProcessRun(t *testing.T) {
	s, reg, b := sweepStore(t)
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()
	got := runSweepHTTP(t, srv.URL, `{"model":"synth","topk":5,"workers":3,"chunk":7}`)

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
	if got.Points != sp.Size() {
		t.Fatalf("served sweep scored %d points, want %d", got.Points, sp.Size())
	}
	// A sweep is a query: the job store never sees it.
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("sweep left %d jobs in the store", len(jobs))
	}
}

// TestSweepAnswersWhileExplorationRuns: a sweep does not wait for the
// exploration pool. With the store's one worker held by an exploration
// blocked in its oracle, POST /v1/sweep still answers its document.
func TestSweepAnswersWhileExplorationRuns(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Add("synth", trainedBundle(t), CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	s := NewJobStore(reg, testBackend(0, block), 1, 4, CoalesceOpts{})
	defer s.Close()
	// Runs before Close on every exit, so a failed check cannot leave
	// Close waiting on the blocked oracle.
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()

	info, err := s.Submit(fastJobRequest("busy"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := s.Get(info.ID)
		if got.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("exploration never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(srv.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"model":"synth","topk":3}`))
	if err != nil {
		t.Fatalf("sweep did not answer while the exploration ran: %v", err)
	}
	var res sweep.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("sweep answered %d (%v) while the exploration ran, want 200 and its document", resp.StatusCode, err)
	}
	if res.Points != 40 || len(res.Frontier) == 0 {
		t.Fatalf("sweep document covers %d points with a %d-point frontier", res.Points, len(res.Frontier))
	}
	if got, _ := s.Get(info.ID); got.Status != JobRunning {
		t.Fatalf("exploration is %s before its oracle was released", got.Status)
	}
	release()
	if done := awaitJob(t, s, info.ID); done.Status != JobDone {
		t.Fatalf("exploration finished %s (%s)", done.Status, done.Error)
	}
}

// TestSweepSubmitValidation: malformed requests fail before any
// scoring.
func TestSweepSubmitValidation(t *testing.T) {
	_, reg, _ := sweepStore(t)
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
		if _, _, err := resolveSweepRequest(reg, req); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
	// The sole model may be left implicit — and once a second model
	// exists, it may not.
	set, sp, err := resolveSweepRequest(reg, SweepRequest{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: -1}); err != nil {
		t.Fatalf("implicit-model sweep: %v", err)
	}
	if _, err := reg.Add("second", trainedBundle(t), CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resolveSweepRequest(reg, SweepRequest{}); err == nil {
		t.Fatal("ambiguous implicit model accepted")
	}
}

// TestSweepHTTPEndToEnd drives POST /v1/sweep and reads the answered
// document, the curl workflow from the README — on a server with a job
// store and on a bare query server alike.
func TestSweepHTTPEndToEnd(t *testing.T) {
	s, reg, _ := sweepStore(t)
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()

	body := `{"model":"synth","topk":3,"metrics":[{"name":"ipc"},{"name":"conf","variance":true,"minimize":true}]}`
	res := runSweepHTTP(t, srv.URL, body)
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

	// A server with no job store answers the same document.
	bare := httptest.NewServer(New(reg))
	defer bare.Close()
	other := runSweepHTTP(t, bare.URL, body)
	res.Elapsed, res.PointsPerSec = 0, 0
	other.Elapsed, other.PointsPerSec = 0, 0
	if !reflect.DeepEqual(res, other) {
		t.Fatalf("bare server's sweep differs:\n%+v\nvs\n%+v", other, res)
	}
}

// TestServerDefaultKernel: the sweep endpoint has no kernel-tier knob
// either. A body naming "kernel" is a 400 naming the field, and a sweep
// requested without it answers a document with no "kernel" key.
func TestServerDefaultKernel(t *testing.T) {
	s, reg, _ := sweepStore(t)
	ts := httptest.NewServer(NewWithJobs(reg, s))
	defer ts.Close()
	for _, kernel := range retiredKernelNames {
		resp, out := postJSON(t, ts.URL+"/v1/sweep", fmt.Sprintf(`{"model":"synth","topk":3,"kernel":%q}`, kernel))
		checkKernelRejected(t, "/v1/sweep", kernel, resp, out)
	}
	raw := postSweep(t, ts.URL, `{"model":"synth","topk":3,"chunk":16}`)
	if !strings.Contains(string(raw), `"frontier"`) {
		t.Fatalf("response carries no sweep document: %s", raw)
	}
	if strings.Contains(string(raw), `"kernel"`) {
		t.Fatalf("sweep document has a kernel key: %s", raw)
	}
}

// TestSweepJobVarianceOnly: a sweep whose only metric is the model's
// variance answers the variance leaderboard of the default
// mean+variance sweep, and the server keeps serving afterwards. The
// engine scores inside its own worker goroutines, where nothing
// recovers a panic, so any panic on this path kills the process.
func TestSweepJobVarianceOnly(t *testing.T) {
	s, reg, b := sweepStore(t)
	ts := httptest.NewServer(NewWithJobs(reg, s))
	defer ts.Close()
	got := runSweepHTTP(t, ts.URL,
		`{"model":"synth","topk":5,"chunk":16,"metrics":[{"name":"conf","model":"synth","variance":true,"minimize":true}]}`)
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: 5, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TopK) != 1 || len(got.TopK[0]) != len(want.TopK[1]) {
		t.Fatalf("variance-only leaderboards %v, want one of %d points", got.TopK, len(want.TopK[1]))
	}
	for i, p := range got.TopK[0] {
		q := want.TopK[1][i]
		if p.Index != q.Index || p.Values[0] != q.Values[1] {
			t.Fatalf("variance rank %d: served sweep has point %d (%v), mean+variance sweep %d (%v)",
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
