package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/sweep"
)

// FrontierDoc is the GET /v1/jobs/{id}/frontier document: the predicted
// Pareto frontier of an exploration job's latest ensemble over its
// acquisition objectives, refreshed after every completed round. It is
// computed by the same streaming sweep engine POST /v1/sweep runs, so
// the frontier is bit-identical to an in-process sweep.Run over the
// same ensemble — the document deliberately carries no timing fields.
//
// The frontier is ranked on raw predicted values; acquisition scores
// candidates in a normalized copy of the same axes, and Pareto
// membership is invariant under that per-axis monotone map, so the two
// views name the same design points.
type FrontierDoc struct {
	JobID string `json:"jobId"`
	// Samples is how many simulations back the served ensemble — the
	// frontier is a prediction of that model, not simulator truth.
	Samples int `json:"samples"`
	// Acquire is the job's canonical acquisition spec ("" when the job
	// explores without one; the default objective pair then applies).
	Acquire string `json:"acquire,omitempty"`
	Space   string `json:"space"`
	Points  int    `json:"points"`
	// Metrics and Frontier mirror sweep.Result: one named axis per
	// acquisition objective, and the Pareto-optimal set over them in
	// ascending index order.
	Metrics  []sweep.MetricInfo `json:"metrics"`
	Frontier []sweep.Point      `json:"frontier"`
}

// acquireMetricSet maps acquisition objectives (or the default pair,
// for a nil config) onto sweep metrics over one ensemble: predicted
// mean or member disagreement per output column, with the objective's
// ranking direction.
func acquireMetricSet(ens *core.Ensemble, acq *core.AcquireConfig) (*core.MetricSet, error) {
	objs := acq.ResolvedObjectives()
	metrics := make([]core.Metric, len(objs))
	for i, o := range objs {
		m := core.Metric{Name: fmt.Sprintf("out%d", o.Output), Ens: ens, Output: o.Output, Minimize: o.Minimize}
		if o.Variance {
			m.Name = fmt.Sprintf("var(out%d)", o.Output)
			m.Kind = core.MetricVariance
		}
		metrics[i] = m
	}
	return core.NewMetricSet(metrics)
}

// Frontier computes the predicted frontier of one exploration job from
// its latest ensemble. The sweep runs on the caller's goroutine — it is
// a query, not a job — bounded like every other query by the ensemble's
// own worker configuration.
func (s *JobStore) Frontier(ctx context.Context, id string) (*FrontierDoc, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %q", id)
	}
	job.mu.Lock()
	sp, ens, acq := job.liveSp, job.liveEns, job.acquire
	samples := 0
	if n := len(job.steps); n > 0 {
		samples = job.steps[n-1].Samples
	}
	job.mu.Unlock()
	if ens == nil {
		return nil, fmt.Errorf("serve: job %q has no trained ensemble yet", id)
	}
	set, err := acquireMetricSet(ens, acq)
	if err != nil {
		return nil, err
	}
	res, err := sweep.Run(ctx, sp, set, sweep.Config{TopK: -1, Workers: ens.Workers()})
	if err != nil {
		return nil, err
	}
	spec := ""
	if acq != nil {
		spec = acq.Spec()
	}
	return &FrontierDoc{
		JobID:    id,
		Samples:  samples,
		Acquire:  spec,
		Space:    res.Space,
		Points:   res.Points,
		Metrics:  res.Metrics,
		Frontier: res.Frontier,
	}, nil
}

func (s *Server) handleJobFrontier(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.requireJobs(w)
	if !ok {
		return
	}
	doc, err := jobs.Frontier(r.Context(), r.PathValue("id"))
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case strings.Contains(err.Error(), "unknown job"):
			status = http.StatusNotFound
		case strings.Contains(err.Error(), "no trained ensemble yet"):
			// The job exists but has not finished a round; poll again.
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
