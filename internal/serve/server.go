// Package serve exposes trained model bundles as an HTTP JSON API —
// the paper's "query the model instead of the simulator" loop as a
// long-running service. One process loads any number of named bundles
// (see internal/bundle) and answers:
//
//	GET  /healthz           liveness and model count
//	GET  /metrics           Prometheus text exposition (latency/cache/coalesce/ratelimit)
//	GET  /v1/models         loaded models with provenance and accuracy estimates
//	POST /v1/predict        one design point → prediction (+ member variance)
//	POST /v1/predict/batch  many design points → predictions, one batched call
//	POST /v1/variance       many design points → ensemble mean + disagreement
//	GET  /v1/sensitivity    model-powered per-axis sensitivity ranking
//	POST /v1/sweep          whole design space → top-k per metric + Pareto frontier
//
//	POST /v1/models/{alias}/reload  hot-swap the alias to a freshly loaded bundle
//
// A sweep (internal/sweep) is the paper's "evaluate the whole space
// through the model" payoff as a query: it streams every design point
// of the named models' shared space through the batched kernels on the
// request goroutine and answers the reduced sweep.Result document —
// per-metric top-k leaderboards and the Pareto frontier over all
// requested metrics (several models' predictions, multi-task output
// columns, or prediction variance as a confidence axis).
//
// The serve tier is production-hardened for sustained traffic: a
// bounded, sharded *exact* prediction cache (cache.go) memoizes by
// (model version, flat index) — legal because design spaces are finite
// and predictions are pure — admission control (limiter.go) degrades
// overload into fast 429 + Retry-After instead of latency collapse,
// and hot reload (reload.go) rolls new bundles under a stable alias
// without dropping requests.
//
// With an exploration backend attached (see JobStore), the server also
// runs the paper's whole §3.3 procedure as asynchronous jobs —
// exploration as a service, run by the exploration driver in
// internal/explore:
//
//	POST /v1/explore             submit an exploration job (202 + job id)
//	GET  /v1/jobs                all jobs with live round progress
//	GET  /v1/jobs/{id}           one job's status, rounds, quarantine
//	GET  /v1/jobs/{id}/frontier  predicted Pareto frontier of the live ensemble
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//
// Completed jobs register their trained bundle in the model registry
// under the requested name, immediately queryable by every endpoint
// above.
//
// Design points are addressed either by flat index ("point"/"points")
// or by explicit choice vectors ("choices"); both are validated against
// the model's design space before encoding. Batch endpoints call the
// vectorized ensemble kernels directly; concurrent single-point
// requests are coalesced into shared batches (see coalesce.go), so a
// flood of small queries rides the same kernels instead of degrading
// into per-point forward passes.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
)

// maxBatchRows bounds one batch request, keeping a single query from
// monopolizing the process (a full-space sweep belongs in paged calls).
const maxBatchRows = 65536

// maxBodyBytes bounds request bodies; the largest legal batch of
// choice vectors stays well under this.
const maxBodyBytes = 16 << 20

// Server is the HTTP front end over a model registry and, optionally,
// an exploration job store.
type Server struct {
	reg  *Registry
	jobs *JobStore
	mux  *http.ServeMux
	ctr  counters
	adm  *admission  // nil = no admission control
	lat  latencyHist // request-duration histogram for /metrics
}

// New builds a server over reg, serving queries only.
func New(reg *Registry) *Server { return NewWithJobs(reg, nil) }

// NewWithJobs builds a server that additionally runs exploration as a
// service: POST /v1/explore submits jobs against jobs' backend, and
// finished models become queryable through the same registry. A nil
// jobs store turns the exploration and job endpoints into 503s; every
// query, /v1/sweep included, answers either way.
func NewWithJobs(reg *Registry, jobs *JobStore) *Server {
	s := &Server{reg: reg, jobs: jobs, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/models/{alias}/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/predict/batch", s.handlePredictBatch)
	s.mux.HandleFunc("POST /v1/variance", s.handleVariance)
	s.mux.HandleFunc("GET /v1/sensitivity", s.handleSensitivity)
	s.mux.HandleFunc("POST /v1/sensitivity", s.handleSensitivity)
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/frontier", s.handleJobFrontier)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	return s
}

// ServeHTTP implements http.Handler. Every request passes through the
// request counters (see stats.go), so /metrics reflects all traffic.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.countRequest(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes one JSON document into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid request body: trailing data")
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": s.reg.Len()})
}

// modelInfo is one /v1/models entry.
type modelInfo struct {
	Name      string        `json:"name"`
	Version   int64         `json:"version"`
	Space     string        `json:"space"`
	Points    int           `json:"points"`
	Params    int           `json:"params"`
	Inputs    int           `json:"inputs"`
	Outputs   int           `json:"outputs"`
	Members   int           `json:"members"`
	Estimate  core.Estimate `json:"estimate"`
	Meta      any           `json:"meta"`
	Coalesced CoalesceStats `json:"coalesced"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var out []modelInfo
	for _, name := range s.reg.Names() {
		m, err := s.reg.Get(name)
		if err != nil {
			continue // removed between Names and Get; nothing to report
		}
		b := m.Bundle
		out = append(out, modelInfo{
			Name:      m.Name,
			Version:   m.Version,
			Space:     b.Space.Name,
			Points:    b.Space.Size(),
			Params:    b.Space.NumParams(),
			Inputs:    b.Encoder.Width(),
			Outputs:   b.Ensemble.Outputs(),
			Members:   b.Ensemble.Members(),
			Estimate:  b.Ensemble.Estimate(),
			Meta:      b.Meta,
			Coalesced: m.Stats(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

// pointSpec addresses design points by flat index or choice vector.
type pointSpec struct {
	Model   string  `json:"model,omitempty"`
	Point   *int    `json:"point,omitempty"`
	Points  []int   `json:"points,omitempty"`
	Choices [][]int `json:"choices,omitempty"`
}

// encodeOne resolves a single-point request into one encoded input row
// and its flat index.
func encodeOne(m *Model, req pointSpec) (x []float64, index int, err error) {
	b := m.Bundle
	if len(req.Points) > 0 {
		return nil, 0, fmt.Errorf("single-point requests use \"point\" or one \"choices\" vector, not \"points\" (try /v1/predict/batch)")
	}
	switch {
	case req.Point != nil && len(req.Choices) == 0:
		if err := b.ValidateIndex(*req.Point); err != nil {
			return nil, 0, err
		}
		return b.Encoder.EncodeIndex(*req.Point, nil), *req.Point, nil
	case req.Point == nil && len(req.Choices) == 1:
		if err := b.ValidateChoices(req.Choices[0]); err != nil {
			return nil, 0, fmt.Errorf("choices[0]: %v", err)
		}
		return b.Encoder.Encode(req.Choices[0], nil), b.Space.Index(req.Choices[0]), nil
	default:
		return nil, 0, fmt.Errorf("request must carry exactly one of \"point\" or one \"choices\" vector")
	}
}

// encodeBatch resolves a batch request into a flat encoded matrix and
// the flat index of every row.
func encodeBatch(m *Model, req pointSpec) (xs []float64, idxs []int, err error) {
	b := m.Bundle
	if req.Point != nil {
		return nil, nil, fmt.Errorf("batch requests use \"points\" or \"choices\", not \"point\"")
	}
	if (len(req.Points) == 0) == (len(req.Choices) == 0) {
		return nil, nil, fmt.Errorf("request must carry exactly one of \"points\" or \"choices\"")
	}
	field, rows := "points", len(req.Points)
	if rows == 0 {
		field, rows = "choices", len(req.Choices)
	}
	if rows > maxBatchRows {
		return nil, nil, fmt.Errorf("%q holds %d rows, past the %d-row batch limit; page the request", field, rows, maxBatchRows)
	}
	width := b.Encoder.Width()
	xs = make([]float64, rows*width)
	idxs = make([]int, rows)
	for i, p := range req.Points {
		if err := b.ValidateIndex(p); err != nil {
			return nil, nil, fmt.Errorf("points[%d]: %v", i, err)
		}
		b.Encoder.EncodeIndex(p, xs[i*width:(i+1)*width])
		idxs[i] = p
	}
	for i, c := range req.Choices {
		if err := b.ValidateChoices(c); err != nil {
			return nil, nil, fmt.Errorf("choices[%d]: %v", i, err)
		}
		b.Encoder.Encode(c, xs[i*width:(i+1)*width])
		idxs[i] = b.Space.Index(c)
	}
	return xs, idxs, nil
}

func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*Model, pointSpec, bool) {
	var req pointSpec
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, req, false
	}
	m, err := s.reg.Get(req.Model)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return nil, req, false
	}
	return m, req, true
}

// predictRetries bounds the handler-side retry on errClosed: a reload
// swaps the coalescer at most once per roll, so one retry usually
// suffices; the bound keeps a crash-looping reload from pinning
// requests forever.
const predictRetries = 3

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	m, req, ok := s.resolve(w, r)
	if !ok {
		return
	}
	for attempt := 0; ; attempt++ {
		x, index, err := encodeOne(m, req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key := cacheKey{version: m.Version, index: index}
		if c := m.coal.cache; c != nil {
			if v, hit := c.get(key); hit {
				// Cache hit: answered without touching the ensemble (or
				// even the coalescer).
				writePrediction(w, m.Name, index, v.mean, v.variance)
				return
			}
		}
		mean, variance, err := m.coal.predict(x, key)
		if err == nil {
			writePrediction(w, m.Name, index, mean, variance)
			return
		}
		// errClosed mid-reload: the alias already points at the new
		// version — re-resolve and retry there, so a roll drops nothing.
		if err == errClosed && attempt < predictRetries {
			if m2, rerr := s.reg.Get(req.Model); rerr == nil && m2 != m {
				m = m2
				continue
			}
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
}

func writePrediction(w http.ResponseWriter, model string, index int, mean, variance float64) {
	writeJSON(w, http.StatusOK, map[string]any{
		"model":      model,
		"point":      index,
		"prediction": mean,
		"variance":   variance,
	})
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	m, req, ok := s.resolve(w, r)
	if !ok {
		return
	}
	xs, idxs, err := encodeBatch(m, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	preds := make([]float64, len(idxs))
	m.Bundle.Ensemble.PredictBatch(0, xs, len(idxs), preds, nil)
	writeJSON(w, http.StatusOK, map[string]any{
		"model":       m.Name,
		"points":      idxs,
		"predictions": preds,
	})
}

func (s *Server) handleVariance(w http.ResponseWriter, r *http.Request) {
	m, req, ok := s.resolve(w, r)
	if !ok {
		return
	}
	xs, idxs, err := encodeBatch(m, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mean, variance := make([]float64, len(idxs)), make([]float64, len(idxs))
	m.Bundle.Ensemble.PredictBatch(0, xs, len(idxs), mean, variance)
	writeJSON(w, http.StatusOK, map[string]any{
		"model":     m.Name,
		"points":    idxs,
		"means":     mean,
		"variances": variance,
	})
}

// requireJobs resolves the job store or answers 503.
func (s *Server) requireJobs(w http.ResponseWriter) (*JobStore, bool) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable,
			"exploration is not configured on this server (start it with an exploration backend)")
		return nil, false
	}
	return s.jobs, true
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.requireJobs(w)
	if !ok {
		return
	}
	var req ExploreRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := jobs.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "queue is full") {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.requireJobs(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs.List()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.requireJobs(w)
	if !ok {
		return
	}
	info, err := jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.requireJobs(w)
	if !ok {
		return
	}
	info, err := jobs.Cancel(r.PathValue("id"))
	if err != nil {
		status := http.StatusConflict
		if strings.Contains(err.Error(), "unknown job") {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// sensitivityRequest parameterizes the model-powered axis ranking.
type sensitivityRequest struct {
	Model string `json:"model,omitempty"`
	Bases int    `json:"bases,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

func (s *Server) handleSensitivity(w http.ResponseWriter, r *http.Request) {
	var req sensitivityRequest
	if r.Method == http.MethodPost {
		if err := decodeBody(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		q := r.URL.Query()
		req.Model = q.Get("model")
		if v := q.Get("bases"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bases must be an integer, got %q", v)
				return
			}
			req.Bases = n
		}
		if v := q.Get("seed"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "seed must be an unsigned integer, got %q", v)
				return
			}
			req.Seed = n
		}
	}
	// The contract is identical for both methods: 0 (or absent) selects
	// the default sample of 20 base points; negative is an error rather
	// than a silent default.
	if req.Bases < 0 || req.Bases > 1024 {
		writeError(w, http.StatusBadRequest, "bases must be in [0,1024] (0 = default), got %d", req.Bases)
		return
	}
	m, err := s.reg.Get(req.Model)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	axes := core.RankedSensitivities(core.Sensitivity(m.Bundle.Ensemble, m.Bundle.Space, req.Bases, req.Seed))
	writeJSON(w, http.StatusOK, map[string]any{"model": m.Name, "axes": axes})
}
