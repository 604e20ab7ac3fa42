package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/space"
)

// testBackend resolves every request onto the synthetic space/target
// pair the query tests already use, with an optional per-point stall so
// cancellation tests can catch a job mid-run.
func testBackend(stall time.Duration, block <-chan struct{}) Backend {
	return func(req ExploreRequest) (*space.Space, core.Oracle, bundle.Meta, error) {
		if req.Study != "synth" {
			return nil, nil, bundle.Meta{}, fmt.Errorf("unknown study %q", req.Study)
		}
		sp := testSpace()
		oracle := core.OracleFunc(func(indices []int) ([][]float64, error) {
			if block != nil {
				<-block
			}
			if stall > 0 {
				time.Sleep(stall)
			}
			out := make([][]float64, len(indices))
			for i, idx := range indices {
				out[i] = []float64{testTarget(sp, idx)}
			}
			return out, nil
		})
		meta := bundle.Meta{Study: req.Study, App: req.App, Metric: "IPC", TraceLen: req.TraceLen}
		return sp, oracle, meta, nil
	}
}

// fastJobRequest keeps job-store tests quick: one 12-point round over
// the 40-point synthetic space.
func fastJobRequest(name string) ExploreRequest {
	return ExploreRequest{
		Name:  name,
		Study: "synth",
		App:   "none",
		// Budget == Batch: single round.
		Budget: 12,
		Batch:  12,
		Seed:   5,
	}
}

// awaitJob polls until the job leaves the queued/running states.
func awaitJob(t *testing.T, s *JobStore, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != JobQueued && info.Status != JobRunning {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return JobInfo{}
}

func TestJobRunsAndRegistersModel(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, testBackend(0, nil), 2, 8, CoalesceOpts{})
	defer s.Close()

	info, err := s.Submit(fastJobRequest("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	done := awaitJob(t, s, info.ID)
	if done.Status != JobDone {
		t.Fatalf("job finished %s (%s), want done", done.Status, done.Error)
	}
	if done.Samples != 12 || len(done.Rounds) != 1 {
		t.Fatalf("job recorded %d samples over %d rounds, want 12 over 1", done.Samples, len(done.Rounds))
	}
	if done.Model != "mcf" {
		t.Fatalf("job reports model %q", done.Model)
	}
	m, err := reg.Get("mcf")
	if err != nil {
		t.Fatalf("finished job did not register its model: %v", err)
	}
	if got := m.Bundle.Meta.Samples; got != 12 {
		t.Fatalf("registered bundle records %d samples, want 12", got)
	}
	if m.Bundle.Meta.Model.Folds == 0 {
		t.Fatal("registered bundle lost its model hyperparameters")
	}
}

func TestJobsSurviveConcurrentSubmission(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, testBackend(0, nil), 2, 32, CoalesceOpts{})
	defer s.Close()

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := s.Submit(fastJobRequest(fmt.Sprintf("model-%d", i)))
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = info.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d failed: %v", i, err)
		}
	}
	seen := map[string]bool{}
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %q", id)
		}
		seen[id] = true
		if done := awaitJob(t, s, id); done.Status != JobDone {
			t.Fatalf("job %d finished %s (%s)", i, done.Status, done.Error)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := reg.Get(fmt.Sprintf("model-%d", i)); err != nil {
			t.Fatalf("model-%d not registered: %v", i, err)
		}
	}
	if got := reg.Len(); got != n {
		t.Fatalf("%d models registered, want %d", got, n)
	}
}

func TestJobNameCollisionsRejected(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	block := make(chan struct{})
	s := NewJobStore(reg, testBackend(0, block), 1, 8, CoalesceOpts{})
	defer s.Close()
	defer close(block)

	if _, err := s.Submit(fastJobRequest("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(fastJobRequest("dup")); err == nil {
		t.Fatal("second job reserved an already-claimed model name")
	}
}

func TestJobCancellation(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	block := make(chan struct{})
	s := NewJobStore(reg, testBackend(0, block), 1, 8, CoalesceOpts{})
	defer s.Close()

	running, err := s.Submit(fastJobRequest("running"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(fastJobRequest("queued"))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the queued job before it starts; the worker must skip it.
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// Cancel the running job while its oracle is blocked mid-round.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, _ := s.Get(running.ID)
		if info.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	close(block) // release the stalled oracle so the driver can observe ctx
	for _, id := range []string{running.ID, queued.ID} {
		if info := awaitJob(t, s, id); info.Status != JobCancelled {
			t.Fatalf("job %s finished %s, want cancelled", id, info.Status)
		}
	}
	// Cancelled jobs release their names and register nothing.
	if _, err := reg.Get("running"); err == nil {
		t.Fatal("cancelled job registered a model")
	}
	if _, err := s.Submit(fastJobRequest("running")); err != nil {
		t.Fatalf("name not released after cancellation: %v", err)
	}
	if info, err := s.Cancel(queued.ID); err == nil {
		t.Fatalf("re-cancelling a settled job succeeded: %+v", info)
	}
}

func TestExploreHTTPEndToEnd(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, testBackend(0, nil), 1, 4, CoalesceOpts{})
	defer s.Close()
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()

	// Submit.
	body := `{"name":"served","study":"synth","app":"none","budget":12,"batch":12,"seed":5}`
	resp, err := http.Post(srv.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	var submitted JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if submitted.ID == "" {
		t.Fatal("no job id returned")
	}
	// The retired "active" shorthand is an unknown field, not a silent
	// random run: "acquire":"variance" is the one spelling.
	r400, out := postJSON(t, srv.URL+"/v1/explore", `{"name":"old","study":"synth","budget":12,"active":true}`)
	if msg, _ := out["error"].(string); r400.StatusCode != http.StatusBadRequest || !strings.Contains(msg, `unknown field "active"`) {
		t.Fatalf(`body with "active" answered %d %q, want 400 naming the field`, r400.StatusCode, msg)
	}

	// Poll the job endpoint until done.
	deadline := time.Now().Add(30 * time.Second)
	var job JobInfo
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if job.Status == JobDone || job.Status == JobFailed || job.Status == JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %s", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.Status != JobDone {
		t.Fatalf("job finished %s (%s)", job.Status, job.Error)
	}

	// The listing shows it; the registered model answers predictions.
	r, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != submitted.ID {
		t.Fatalf("job listing %+v does not show the submitted job", list.Jobs)
	}
	pr, err := http.Post(srv.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"model":"served","point":7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("prediction against the job's model returned %d", pr.StatusCode)
	}
	var pred struct {
		Prediction float64 `json:"prediction"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if pred.Prediction <= 0 {
		t.Fatalf("implausible prediction %v from the explored model", pred.Prediction)
	}
}

func TestExploreEndpointsWithoutBackend(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	srv := httptest.NewServer(New(reg))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/explore", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore without a backend returned %d, want 503", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, testBackend(0, nil), 1, 1, CoalesceOpts{})
	defer s.Close()
	cases := map[string]ExploreRequest{
		"no name":        {Study: "synth", Budget: 10},
		"no budget":      {Name: "x", Study: "synth"},
		"batch > budget": {Name: "x", Study: "synth", Budget: 10, Batch: 20},
		"negative batch": {Name: "x", Study: "synth", Budget: 10, Batch: -1},
	}
	for label, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("%s accepted", label)
		}
	}
}

// TestCancelQueuedJobFreesQueueSlot guards queue accounting: cancelling
// queued jobs must release their capacity immediately, not when a busy
// worker eventually reaches the tombstones.
func TestCancelQueuedJobFreesQueueSlot(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	block := make(chan struct{})
	s := NewJobStore(reg, testBackend(0, block), 1, 2, CoalesceOpts{})
	defer s.Close()
	defer close(block)

	busy, err := s.Submit(fastJobRequest("busy"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked it up (its oracle then blocks), so
	// the pending queue is empty before we fill it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, _ := s.Get(busy.ID)
		if info.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("busy job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	q1, err := s.Submit(fastJobRequest("q1"))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Submit(fastJobRequest("q2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(fastJobRequest("q3")); err == nil {
		t.Fatal("queue accepted beyond its capacity")
	}
	for _, id := range []string{q1.ID, q2.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	// Both slots must be free again while the worker is still busy.
	if _, err := s.Submit(fastJobRequest("q4")); err != nil {
		t.Fatalf("queue slot not freed by cancellation: %v", err)
	}
	if _, err := s.Submit(fastJobRequest("q5")); err != nil {
		t.Fatalf("second queue slot not freed by cancellation: %v", err)
	}
}
