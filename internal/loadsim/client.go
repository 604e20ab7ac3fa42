package loadsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Outcome classifies one request's fate, from the client's side of the
// wire. The split between Rejected/Reset and Dropped is what the
// graceful-shutdown test leans on: a server that stopped taking work
// before processing it is draining correctly, while a response that
// *started* and never finished means the server vaporized a request it
// had accepted.
type Outcome string

const (
	OutcomeOK        Outcome = "ok"         // 2xx with a complete body
	OutcomeHTTPError Outcome = "http_error" // complete non-2xx response
	// OutcomeRejected is a request the server turned away before doing
	// any work: a 429 from admission control, or a connection that never
	// established (dial failed). Rejections are load shedding, not
	// failures, and are graded by their own SLO term.
	OutcomeRejected Outcome = "rejected"
	// OutcomeReset is a connection that established but died before any
	// response bytes — the request never reached a handler (e.g. the
	// accept queue was torn down at shutdown).
	OutcomeReset Outcome = "reset"
	// OutcomeDropped is a response that started and was cut off — work
	// the server accepted and abandoned.
	OutcomeDropped Outcome = "dropped"
)

// Client issues harness requests against one or more serve nodes.
type Client struct {
	targets []string
	model   string
	httpc   *http.Client
}

// NewClient builds a client over base URLs like "http://host:8080".
func NewClient(targets []string, model string, httpc *http.Client) (*Client, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("loadsim: need at least one target URL")
	}
	cleaned := make([]string, len(targets))
	for i, t := range targets {
		t = strings.TrimRight(strings.TrimSpace(t), "/")
		if t == "" {
			return nil, fmt.Errorf("loadsim: empty target URL")
		}
		cleaned[i] = t
	}
	if httpc == nil {
		httpc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{targets: cleaned, model: model, httpc: httpc}, nil
}

// modelsResponse is the slice of /v1/models the client needs.
type modelsResponse struct {
	Models []struct {
		Name   string `json:"name"`
		Points int    `json:"points"`
	} `json:"models"`
}

// SpaceSize resolves the driven model's design-space size from the
// first target, and the model name when the config left it empty (one
// loaded model resolves unambiguously, as with the serve API itself).
func (c *Client) SpaceSize(ctx context.Context) (model string, points int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.targets[0]+"/v1/models", nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("loadsim: discovering models on %s: %v", c.targets[0], err)
	}
	defer resp.Body.Close()
	var doc modelsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&doc); err != nil {
		return "", 0, fmt.Errorf("loadsim: %s/v1/models: %v", c.targets[0], err)
	}
	if len(doc.Models) == 0 {
		return "", 0, fmt.Errorf("loadsim: %s serves no models", c.targets[0])
	}
	if c.model == "" {
		if len(doc.Models) != 1 {
			return "", 0, fmt.Errorf("loadsim: %s serves %d models, pass -model to pick one", c.targets[0], len(doc.Models))
		}
		return doc.Models[0].Name, doc.Models[0].Points, nil
	}
	for _, m := range doc.Models {
		if m.Name == c.model {
			return m.Name, m.Points, nil
		}
	}
	return "", 0, fmt.Errorf("loadsim: model %q is not served by %s", c.model, c.targets[0])
}

// target picks the node for a request, round-robin by request ordinal
// so the assignment is schedule-deterministic.
func (c *Client) target(ordinal int) string {
	return c.targets[ordinal%len(c.targets)]
}

// Do issues one request of the given kind for the given flat design
// points and reports how it ended. latency covers the full round trip.
func (c *Client) Do(ctx context.Context, model string, ordinal int, kind ReqKind, points []int) (Outcome, time.Duration) {
	var path string
	body := map[string]any{"model": model}
	switch kind {
	case ReqPredict:
		path = "/v1/predict"
		body["point"] = points[0]
	case ReqBatch:
		path = "/v1/predict/batch"
		body["points"] = points
	case ReqVariance:
		path = "/v1/variance"
		body["points"] = points
	default:
		return OutcomeHTTPError, 0
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return OutcomeHTTPError, 0
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.target(ordinal)+path, bytes.NewReader(buf))
	if err != nil {
		return OutcomeHTTPError, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return classifyTransportErr(err), time.Since(start)
	}
	// Read the body fully: a truncated body is a dropped response, not a
	// served one.
	_, rerr := io.Copy(io.Discard, io.LimitReader(resp.Body, 16<<20))
	resp.Body.Close()
	lat := time.Since(start)
	if rerr != nil {
		return OutcomeDropped, lat
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return OutcomeRejected, lat
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return OutcomeHTTPError, lat
	}
	return OutcomeOK, lat
}

// classifyTransportErr separates "never connected" from "connected but
// no response ever started".
func classifyTransportErr(err error) Outcome {
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		return OutcomeRejected
	}
	return OutcomeReset
}

// ServerTotals are the server-side cumulative counters the timeline
// attributes to buckets as deltas, scraped from GET /metrics
// (Prometheus text exposition).
type ServerTotals struct {
	CoalReqs       int64 // single-point requests answered by coalescers
	CoalFlushes    int64 // kernel calls spent answering them
	CacheHits      int64 // prediction-cache hits
	CacheMisses    int64 // prediction-cache misses
	RateRejections int64 // 429s from admission control (rate + in-flight)
}

// metricFamilies maps scraped /metrics family names onto ServerTotals
// fields. Counters are summed across labels (models, reject reasons)
// and across targets.
var metricFamilies = map[string]func(*ServerTotals, float64){
	"repro_model_requests_total":       func(t *ServerTotals, v float64) { t.CoalReqs += int64(v) },
	"repro_model_flushes_total":        func(t *ServerTotals, v float64) { t.CoalFlushes += int64(v) },
	"repro_cache_hits_total":           func(t *ServerTotals, v float64) { t.CacheHits += int64(v) },
	"repro_cache_misses_total":         func(t *ServerTotals, v float64) { t.CacheMisses += int64(v) },
	"repro_ratelimit_rejections_total": func(t *ServerTotals, v float64) { t.RateRejections += int64(v) },
}

// MetricsTotals scrapes GET /metrics on every target and sums the
// counter families the harness grades. A target that fails to answer
// contributes zero: counters are best-effort garnish, not load.
func (c *Client) MetricsTotals(ctx context.Context) ServerTotals {
	var totals ServerTotals
	for _, t := range c.targets {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			continue
		}
		raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		parsePromText(string(raw), &totals)
	}
	return totals
}

// parsePromText folds one Prometheus text document into totals. Only
// sample lines whose family is in metricFamilies contribute; labels are
// ignored beyond delimiting the family name (the harness wants sums).
func parsePromText(doc string, totals *ServerTotals) {
	for _, line := range strings.Split(doc, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		} else if i := strings.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		add, want := metricFamilies[name]
		if !want {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		add(totals, v)
	}
}
