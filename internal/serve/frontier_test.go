package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/sweep"
)

// dualTestTarget is the second oracle output for frontier tests: a
// synthetic cost that rises with the same knobs testTarget rewards, so
// maximize-out0/minimize-out1 has a real trade-off frontier.
func dualTestTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	e := 0.3 + 0.08*sp.Value(c, 0) + 0.05*sp.Value(c, 1)
	if sp.LevelName(c, 2) == "y" {
		e *= 1.2
	}
	return e
}

// dualJobBackend is testBackend with a two-output oracle, for
// acquisition jobs whose objectives reference out1.
func dualJobBackend() Backend {
	return func(req ExploreRequest) (*space.Space, core.Oracle, bundle.Meta, error) {
		if req.Study != "synth" {
			return nil, nil, bundle.Meta{}, fmt.Errorf("unknown study %q", req.Study)
		}
		sp := testSpace()
		oracle := core.OracleFunc(func(indices []int) ([][]float64, error) {
			out := make([][]float64, len(indices))
			for i, idx := range indices {
				out[i] = []float64{testTarget(sp, idx), dualTestTarget(sp, idx)}
			}
			return out, nil
		})
		meta := bundle.Meta{Study: req.Study, App: req.App, Metric: "IPC", TraceLen: req.TraceLen}
		return sp, oracle, meta, nil
	}
}

// TestFrontierEndpointMatchesInProcessSweep is the endpoint's contract
// from the issue: the document's frontier must be byte-identical to an
// in-process sweep.Run over the job's ensemble with the job's
// acquisition objectives as metrics.
func TestFrontierEndpointMatchesInProcessSweep(t *testing.T) {
	const spec = "hvi:max=out0:min=out1"
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, dualJobBackend(), 1, 4, CoalesceOpts{})
	defer s.Close()

	req := ExploreRequest{
		Name:    "pareto",
		Study:   "synth",
		App:     "none",
		Budget:  24,
		Batch:   12, // two rounds: round 2 selects via acquisition
		Seed:    5,
		Acquire: spec,
	}
	info, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if done := awaitJob(t, s, info.ID); done.Status != JobDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}

	doc, err := s.Frontier(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Acquire != spec {
		t.Fatalf("frontier doc reports spec %q, want %q", doc.Acquire, spec)
	}
	if doc.Samples != 24 {
		t.Fatalf("frontier doc built from %d samples, want 24", doc.Samples)
	}
	if len(doc.Frontier) == 0 {
		t.Fatal("empty predicted frontier")
	}

	// Rebuild the metric set by hand — explicit literals, not the
	// helper the endpoint uses — and sweep in-process.
	s.mu.Lock()
	job := s.jobs[info.ID]
	s.mu.Unlock()
	job.mu.Lock()
	sp, ens := job.liveSp, job.liveEns
	job.mu.Unlock()
	set, err := core.NewMetricSet([]core.Metric{
		{Name: "out0", Ens: ens, Output: 0},
		{Name: "out1", Ens: ens, Output: 1, Minimize: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(doc.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("endpoint frontier differs from in-process sweep:\n got %s\nwant %s", got, want)
	}

	// Over HTTP the document must be stable: two reads of a finished
	// job are byte-identical, and agree with the in-process call.
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()
	read := func() []byte {
		r, err := http.Get(srv.URL + "/v1/jobs/" + info.ID + "/frontier")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("frontier endpoint returned %d", r.StatusCode)
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := read(), read()
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated frontier reads differ:\n%s\n%s", first, second)
	}
	var over FrontierDoc
	if err := json.Unmarshal(first, &over); err != nil {
		t.Fatal(err)
	}
	overJSON, err := json.Marshal(over.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(overJSON, want) {
		t.Fatalf("HTTP frontier differs from in-process sweep:\n got %s\nwant %s", overJSON, want)
	}
}

// TestFrontierWithoutAcquisition: a job with no objectives in its
// acquire spec — none at all, or the bare "variance" acquirer — still
// serves a frontier over the default objective pair: predicted
// performance vs prediction disagreement.
func TestFrontierWithoutAcquisition(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, testBackend(0, nil), 1, 4, CoalesceOpts{})
	defer s.Close()

	for _, active := range []bool{false, true} {
		req := fastJobRequest(fmt.Sprintf("active-%v", active))
		if active {
			req.Acquire = "variance"
		}
		info, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if done := awaitJob(t, s, info.ID); done.Status != JobDone {
			t.Fatalf("job finished %s (%s)", done.Status, done.Error)
		}
		doc, err := s.Frontier(context.Background(), info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]string{false: "", true: "variance"}[active]; doc.Acquire != want {
			t.Fatalf("active=%v job reports acquire spec %q, want %q", active, doc.Acquire, want)
		}
		if len(doc.Metrics) != 2 || doc.Metrics[0].Name != "out0" || doc.Metrics[1].Name != "var(out0)" {
			t.Fatalf("default frontier axes %+v, want out0 and var(out0)", doc.Metrics)
		}
		if !doc.Metrics[1].Minimize {
			t.Fatal("disagreement axis must be minimized")
		}
		if len(doc.Frontier) == 0 {
			t.Fatal("empty predicted frontier")
		}
	}
}

func TestFrontierErrors(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	block := make(chan struct{})
	s := NewJobStore(reg, testBackend(0, block), 1, 8, CoalesceOpts{})
	defer s.Close()
	srv := httptest.NewServer(NewWithJobs(reg, s))
	defer srv.Close()

	status := func(id string) int {
		r, err := http.Get(srv.URL + "/v1/jobs/" + id + "/frontier")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}

	// Unknown job: 404.
	if got := status("nope"); got != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", got)
	}

	// A job still in its first round has no ensemble yet: 409, poll again.
	info, err := s.Submit(fastJobRequest("blocked"))
	if err != nil {
		t.Fatal(err)
	}
	if got := status(info.ID); got != http.StatusConflict {
		t.Fatalf("ensemble-less job returned %d, want 409", got)
	}
	close(block)
	if done := awaitJob(t, s, info.ID); done.Status != JobDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}
}

// TestSubmitRejectsBadAcquireSpec: malformed specs fail at submission,
// not as a dead job minutes later.
func TestSubmitRejectsBadAcquireSpec(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, testBackend(0, nil), 1, 1, CoalesceOpts{})
	defer s.Close()
	for _, spec := range []string{"entropy", "hvi:best=out0", "variance:out0>=x"} {
		req := fastJobRequest("bad")
		req.Acquire = spec
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("spec %q accepted at submit", spec)
		}
	}
}

// TestAcquireJobFailsOnNarrowOracle: an acquisition spec referencing a
// second output against a one-output oracle fails the job with an
// error naming the width mismatch instead of panicking a worker.
func TestAcquireJobFailsOnNarrowOracle(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s := NewJobStore(reg, testBackend(0, nil), 1, 4, CoalesceOpts{})
	defer s.Close()
	req := ExploreRequest{
		Name:    "narrow",
		Study:   "synth",
		App:     "none",
		Budget:  24,
		Batch:   12,
		Seed:    5,
		Acquire: "hvi:max=out0:min=out1",
	}
	info, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done := awaitJob(t, s, info.ID)
	if done.Status != JobFailed {
		t.Fatalf("narrow-oracle acquisition job finished %s, want failed", done.Status)
	}
	if !strings.Contains(done.Error, "output") {
		t.Fatalf("failure %q does not name the output-width mismatch", done.Error)
	}
}
