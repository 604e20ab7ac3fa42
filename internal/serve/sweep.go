package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/ann"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/sweep"
)

// Sweep request bounds: generous for real studies, tight enough that
// one request cannot make the process hoard memory.
const (
	maxSweepTopK  = 4096
	maxSweepChunk = 1 << 20
)

// SweepRequest is the wire form of one full-space sweep job: which
// registered models contribute ranking metrics, which metrics to
// reduce by, and the engine knobs. Results are bit-identical for any
// Workers/Chunk setting.
type SweepRequest struct {
	// Model names the single registry model to sweep (may be empty on
	// a one-model server); Models lists several whose bundles must
	// share one design space (e.g. a performance and an energy model).
	// Exactly one of the two forms may be used.
	Model  string   `json:"model,omitempty"`
	Models []string `json:"models,omitempty"`
	// Metrics are the ranking axes. Empty selects the defaults: one
	// model sweeps primary-prediction (maximize) plus prediction
	// variance (minimize) — the performance-vs-confidence frontier;
	// several models sweep one primary axis each.
	Metrics []sweep.MetricSpec `json:"metrics,omitempty"`
	// TopK is the per-metric leaderboard size (0 = default, negative =
	// frontier only); Chunk is the enumeration granularity (0 =
	// default). Workers bounds the engine's own pool — 0 keeps it at 1
	// on the server, because the registered ensembles already fan
	// batched predictions out over the server-wide worker bound and
	// nesting two full-size pools would only oversubscribe the host
	// under concurrent query traffic.
	TopK    int `json:"topk,omitempty"`
	Chunk   int `json:"chunk,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Kernel names the forward-pass tier (see ann.KernelMode): "exact"
	// keeps the bit-identical default; "fast32" trades the
	// documented mathx error bounds for throughput. Empty defers to the
	// server's -kernel default (itself exact unless configured).
	// Whatever the tier, results stay bit-identical within it for any
	// Workers/Chunk setting.
	Kernel string `json:"kernel,omitempty"`
}

// kernelMode resolves the request's tier against a server default.
// Validate has already rejected unknown names by the time this runs.
func (r SweepRequest) kernelMode(def ann.KernelMode) ann.KernelMode {
	if r.Kernel == "" {
		return def
	}
	mode, err := ann.ParseKernelMode(r.Kernel)
	if err != nil {
		return def
	}
	return mode
}

// Validate checks the request's registry-independent bounds — the
// checks a server enforces before touching any model.
func (r SweepRequest) Validate() error {
	switch {
	case r.Model != "" && len(r.Models) > 0:
		return fmt.Errorf(`serve: sweep takes "model" or "models", not both`)
	case r.TopK > maxSweepTopK:
		return fmt.Errorf("serve: topk %d exceeds the %d limit", r.TopK, maxSweepTopK)
	case r.Chunk < 0 || r.Chunk > maxSweepChunk:
		return fmt.Errorf("serve: chunk %d outside [0,%d]", r.Chunk, maxSweepChunk)
	case r.Workers < 0:
		return fmt.Errorf("serve: workers %d is negative", r.Workers)
	}
	if _, err := ann.ParseKernelMode(r.Kernel); err != nil {
		return fmt.Errorf("serve: kernel: %w", err)
	}
	seen := make(map[string]bool, len(r.Models))
	for _, name := range r.Models {
		if seen[name] {
			// Matching cmd/sweep's local path: a duplicate would
			// otherwise silently fabricate duplicate metric axes.
			return fmt.Errorf("serve: model %q listed twice", name)
		}
		seen[name] = true
	}
	return nil
}

// resolveSweepRequest validates a sweep request's engine bounds and
// resolves its models and metrics against the registry.
func resolveSweepRequest(reg *Registry, req SweepRequest) (*core.MetricSet, *space.Space, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	models := req.Models
	if req.Model != "" {
		models = []string{req.Model}
	}
	if len(models) == 0 {
		m, err := reg.Get("") // the sole model, or a descriptive error
		if err != nil {
			return nil, nil, err
		}
		models = []string{m.Name}
	}
	bundles := make(map[string]*bundle.Bundle, len(models))
	for _, name := range models {
		if name == "" {
			return nil, nil, fmt.Errorf(`serve: sweep "models" entries must be named`)
		}
		m, err := reg.Get(name)
		if err != nil {
			return nil, nil, err
		}
		bundles[m.Name] = m.Bundle
	}
	specs := req.Metrics
	if len(specs) == 0 {
		specs = sweep.DefaultSpecs(models)
	}
	return sweep.Resolve(specs, bundles)
}

// SubmitSweep validates, enqueues and returns a new sweep job. The
// metric set is resolved against the registry at submission, so a
// request naming unknown models or incompatible spaces fails
// synchronously; the sweep itself runs asynchronously on the store's
// worker pool, with live progress in the job's Swept/SweepTotal.
func (s *JobStore) SubmitSweep(req SweepRequest) (JobInfo, error) {
	set, sp, err := resolveSweepRequest(s.reg, req)
	if err != nil {
		return JobInfo{}, err
	}
	return s.enqueue(JobKindSweep, req, "", func(ctx context.Context, job *Job) (any, error) {
		cfg := sweep.Config{
			TopK:      req.TopK,
			ChunkSize: req.Chunk,
			Workers:   max(req.Workers, 1), // 0 means 1 here; see SweepRequest.Workers
			Kernel:    req.kernelMode(s.kernel),
			OnProgress: func(done, total int) {
				job.mu.Lock()
				job.swept, job.sweepTotal = done, total
				job.mu.Unlock()
			},
		}
		return sweep.Run(ctx, sp, set, cfg)
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.requireJobs(w)
	if !ok {
		return
	}
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := jobs.SubmitSweep(req)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case strings.Contains(err.Error(), "unknown model"):
			status = http.StatusNotFound
		case strings.Contains(err.Error(), "queue is full"):
			status = http.StatusTooManyRequests
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}
