// Package cluster fans one full-space sweep out across serve nodes —
// the paper's "rank the whole space through the model" payoff at
// multi-node scale. A coordinator splits the flat index range of a
// design space into shards aligned to absolute chunk boundaries,
// dispatches them to the nodes' POST /v1/sweep/shard endpoints with
// bounded in-flight concurrency per node (a pull queue, so faster
// nodes take more shards), requeues shards whose node fails or times
// out onto the surviving nodes, and merges the returned partial
// reductions strictly in shard order. A node answering 429 under
// admission control is back-pressure, not failure: the dispatch slot
// honors the Retry-After hint and re-sends the shard without charging
// the node a strike.
//
// Because every shard partial is a pure function of (loaded bundles,
// request, range) and the merge algebra is associative (see
// sweep.Partial), the coordinated result is bit-identical to a
// single-process sweep.Run for any node count, shard size, and
// failure schedule — the only fields that vary are the timing ones.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// Coordinator defaults.
const (
	// DefaultInFlight is the in-flight shard bound per node.
	DefaultInFlight = 2
	// DefaultRetries is how many times one shard may fail — across
	// all nodes — before the sweep gives up.
	DefaultRetries = 3
	// DefaultNodeFailures is how many failures retire a node from the
	// rest of the sweep.
	DefaultNodeFailures = 2
	// DefaultTimeout bounds one shard request.
	DefaultTimeout = 2 * time.Minute
	// DefaultShardsPerSlot sizes auto-planned shards: enough shards
	// that a retired node's work redistributes evenly, few enough
	// that per-shard HTTP overhead stays negligible.
	DefaultShardsPerSlot = 4
	// DefaultMaxShardPoints caps auto-planned shard sizes. Shard
	// compute time grows with the space while Timeout does not, so an
	// uncapped plan over a big enough space would time every dispatch
	// out; at ~4M points a shard stays well inside DefaultTimeout at
	// the engine's measured throughput. Explicit ShardPoints settings
	// are the operator's own business and are not capped.
	DefaultMaxShardPoints = 1 << 22
)

// Config parameterizes one coordinated sweep.
type Config struct {
	// Nodes are the serve-node base URLs (e.g. "http://host:8080"; a
	// bare host:port gets the http scheme). Every node must serve the
	// same registered bundles — shard determinism is per-bundle, so
	// drifted registries would break the bit-identity guarantee (the
	// coordinator cross-checks space name and size at discovery).
	Nodes []string
	// Request is the sweep every shard runs: models, metrics, top-k
	// and chunk size. The coordinator sends it verbatim with only the
	// [start, end) range varying, so all shards normalize identically.
	Request serve.SweepRequest
	// ShardPoints is the number of design points per dispatched shard
	// (0 = auto: about DefaultShardsPerSlot shards per dispatch slot,
	// capped at DefaultMaxShardPoints so one shard always finishes
	// well inside Timeout; mind the cap when setting it explicitly).
	// It is rounded up to a multiple of the chunk size so shard
	// boundaries stay on absolute chunk boundaries — the alignment
	// that makes every shard a byte-exact sub-reduction of the full
	// run.
	ShardPoints int
	// InFlight bounds in-flight shards per node (0 = DefaultInFlight).
	InFlight int
	// Retries is the per-shard failure budget across all nodes before
	// the sweep fails (0 = DefaultRetries).
	Retries int
	// NodeFailures retires a node after that many failed shards
	// (0 = DefaultNodeFailures); its queued work redistributes to the
	// surviving nodes.
	NodeFailures int
	// Timeout bounds one shard request (0 = DefaultTimeout); a
	// timed-out shard is requeued like any other node failure.
	Timeout time.Duration
	// Client is the HTTP client shards ride on (nil = a default
	// client; per-request deadlines come from Timeout).
	Client *http.Client
	// OnProgress, when non-nil, is called from the merge loop — in
	// shard order, on the Run goroutine — with design points covered.
	OnProgress func(done, total int)
	// Logf, when non-nil, receives scheduling events: shard failures,
	// requeues, node retirements.
	Logf func(format string, args ...any)
}

// Coordinator runs coordinated sweeps against a fixed node set.
type Coordinator struct {
	cfg    Config
	nodes  []string // normalized base URLs
	client *http.Client
	logf   func(format string, args ...any)
}

// New validates the node list and builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes to sweep on")
	}
	if cfg.ShardPoints < 0 {
		return nil, fmt.Errorf("cluster: Config.ShardPoints %d is negative", cfg.ShardPoints)
	}
	// Every node enforces these bounds; failing here keeps a malformed
	// request from burning the retry budget as fake node failures.
	if err := cfg.Request.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, client: cfg.Client, logf: cfg.Logf}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, raw := range cfg.Nodes {
		node, err := normalizeNode(raw)
		if err != nil {
			return nil, err
		}
		if seen[node] {
			return nil, fmt.Errorf("cluster: node %s listed twice", node)
		}
		seen[node] = true
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// normalizeNode turns a flag-friendly node spec into a base URL.
func normalizeNode(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	if raw == "" {
		return "", fmt.Errorf("cluster: empty node URL")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return "", fmt.Errorf("cluster: node %q is not a usable http(s) URL", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

func (c *Coordinator) inFlight() int {
	if c.cfg.InFlight > 0 {
		return c.cfg.InFlight
	}
	return DefaultInFlight
}

func (c *Coordinator) retries() int {
	if c.cfg.Retries > 0 {
		return c.cfg.Retries
	}
	return DefaultRetries
}

func (c *Coordinator) nodeFailures() int {
	if c.cfg.NodeFailures > 0 {
		return c.cfg.NodeFailures
	}
	return DefaultNodeFailures
}

func (c *Coordinator) timeout() time.Duration {
	if c.cfg.Timeout > 0 {
		return c.cfg.Timeout
	}
	return DefaultTimeout
}

// shardResult is one finished shard travelling worker → merger.
type shardResult struct {
	id      int
	partial *sweep.Partial
}

// rejectedError marks an HTTP 400 — the node rejected the request
// itself, deterministically, so it must fail the sweep rather than
// count as a node failure.
type rejectedError struct{ err error }

func (e *rejectedError) Error() string { return e.err.Error() }
func (e *rejectedError) Unwrap() error { return e.err }

// throttledError marks an HTTP 429 — the node shed the shard under
// admission control. That is back-pressure, not a node failure: the
// dispatch slot honors the advertised Retry-After and tries the same
// shard again without charging the node a strike.
type throttledError struct {
	after time.Duration
	err   error
}

func (e *throttledError) Error() string { return e.err.Error() }
func (e *throttledError) Unwrap() error { return e.err }

// Throttle-retry bounds: how many consecutive 429s one dispatch slot
// absorbs for a single shard before treating them as a real failure,
// and the clamp on the server's Retry-After hint.
const (
	maxThrottleRetries = 8
	minRetryAfter      = 100 * time.Millisecond
	maxRetryAfter      = 5 * time.Second
)

// parseRetryAfter reads a Retry-After header into a bounded wait. RFC
// 9110 §10.2.3 allows two forms: delta-seconds and an HTTP-date; a date
// becomes the interval from now until it (a past date collapses to the
// minimum clamp). Absent or unparseable values default to one second.
func parseRetryAfter(h string) time.Duration {
	return parseRetryAfterAt(h, time.Now()) //repolint:allow determinism -- Retry-After backoff is wall-clock pacing; it never reaches sweep results
}

// parseRetryAfterAt is parseRetryAfter against an explicit clock, so
// the date arithmetic is testable.
func parseRetryAfterAt(h string, now time.Time) time.Duration {
	d := time.Second
	h = strings.TrimSpace(h)
	if secs, err := strconv.Atoi(h); err == nil {
		d = time.Duration(secs) * time.Second
	} else if when, err := http.ParseTime(h); err == nil {
		d = when.Sub(now)
	}
	if d < minRetryAfter {
		d = minRetryAfter
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// Run executes the coordinated sweep: discovery, shard planning,
// dispatch with failure requeue, and the ordered merge. The result is
// bit-identical to a single-process sweep.Run over the same bundles and
// request (timing fields aside).
func (c *Coordinator) Run(ctx context.Context) (*sweep.Result, error) {
	wall := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	size, spaceName, err := c.discover(runCtx)
	if err != nil {
		return nil, err
	}
	chunk := c.cfg.Request.Chunk
	if chunk <= 0 {
		chunk = sweep.DefaultChunkSize
	}

	slots := c.inFlight()
	shards := planShards(size, chunk, c.cfg.ShardPoints, slots*len(c.nodes))
	c.logf("cluster: %d nodes, %d shards of ≤%d points, %d dispatch slots",
		len(c.nodes), len(shards), shards[0].end-shards[0].start, slots*len(c.nodes))

	sc := newSched(c.nodes, shards, c.retries(), c.nodeFailures(), cancel, c.logf)
	stopWatch := context.AfterFunc(runCtx, sc.stop)
	defer stopWatch()

	results := make(chan shardResult, len(shards))
	var wg sync.WaitGroup
	for n := range c.nodes {
		for s := 0; s < slots; s++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				c.nodeWorker(runCtx, sc, n, spaceName, results)
			}(n)
		}
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered merge: shard partials may arrive in any order, but fold
	// strictly by shard id, so the merge sequence — and therefore the
	// output bits — is a fixed function of the plan, not of node speed
	// or the failure schedule.
	var acc *sweep.Partial
	var mergeErr error
	pending := make(map[int]*sweep.Partial, len(shards))
	merged := 0
	for r := range results {
		if mergeErr != nil {
			continue // draining after a fatal merge problem
		}
		pending[r.id] = r.partial
		for {
			p, ok := pending[merged]
			if !ok {
				break
			}
			delete(pending, merged)
			if acc == nil {
				acc = p
			} else if err := acc.Merge(p); err != nil {
				mergeErr = err
			}
			if mergeErr == nil && len(acc.Frontier) > sweep.DefaultMaxFrontier {
				mergeErr = fmt.Errorf("cluster: merged Pareto frontier exceeds %d points after %d of %d — the metric set is likely degenerate (one axis both maximized and minimized)",
					sweep.DefaultMaxFrontier, acc.End, size)
			}
			if mergeErr != nil {
				cancel()
				sc.stop()
				break
			}
			merged++
			if c.cfg.OnProgress != nil {
				c.cfg.OnProgress(acc.End, size)
			}
		}
	}
	switch {
	case mergeErr != nil:
		return nil, mergeErr
	case sc.error() != nil:
		return nil, sc.error()
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case acc == nil || merged != len(shards):
		return nil, fmt.Errorf("cluster: internal: merged %d of %d shards", merged, len(shards))
	}
	res := acc.Result()
	res.Elapsed = time.Since(wall)
	res.PointsPerSec = float64(res.Points) / res.Elapsed.Seconds()
	return res, nil
}

// nodeWorker is one dispatch slot: it pulls the lowest-id runnable
// shard, runs it on its node, and either delivers the partial or
// hands the shard back for requeue. 429s are absorbed in place: the
// slot waits out the node's Retry-After and re-sends the same shard,
// up to maxThrottleRetries consecutive times, without charging the
// node a failure strike.
func (c *Coordinator) nodeWorker(ctx context.Context, sc *sched, node int, spaceName string, results chan<- shardResult) {
	for {
		sh := sc.next(node)
		if sh == nil {
			return
		}
		var p *sweep.Partial
		var err error
		for attempt := 0; ; attempt++ {
			p, err = c.runShard(ctx, node, sh.start, sh.end, spaceName)
			var throttled *throttledError
			if err == nil || ctx.Err() != nil || !errors.As(err, &throttled) || attempt >= maxThrottleRetries {
				break
			}
			c.logf("cluster: node %s throttled shard [%d,%d); retrying in %v (attempt %d/%d)",
				c.nodes[node], sh.start, sh.end, throttled.after, attempt+1, maxThrottleRetries)
			t := time.NewTimer(throttled.after)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if err != nil {
			var rejected *rejectedError
			switch {
			case ctx.Err() != nil:
				sc.requeue(sh) // the run is over; don't blame the node
				return
			case errors.As(err, &rejected):
				sc.fatal(err) // deterministic rejection: no node can run this
				return
			}
			sc.fail(node, sh, err)
			continue
		}
		sc.finish(sh)
		results <- shardResult{id: sh.id, partial: p}
	}
}

// runShard executes one POST /v1/sweep/shard against a node and
// validates the returned partial's identity. Shard traffic always
// rides the binary wire format (see internal/serve/wire.go); only
// error bodies are JSON.
func (c *Coordinator) runShard(ctx context.Context, node int, start, end int, spaceName string) (*sweep.Partial, error) {
	nodeURL := c.nodes[node]
	req := serve.ShardRequest{SweepRequest: c.cfg.Request, Start: start, End: end}
	body, err := req.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("cluster: encode shard request: %w", err)
	}
	reqCtx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(reqCtx, http.MethodPost, nodeURL+"/v1/sweep/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", serve.ShardRequestMediaType)
	resp, err := c.client.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", nodeURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := ""
		if json.NewDecoder(resp.Body).Decode(&e) == nil {
			msg = ": " + e.Error
		}
		err := fmt.Errorf("cluster: node %s answered HTTP %d%s", nodeURL, resp.StatusCode, msg)
		switch resp.StatusCode {
		case http.StatusBadRequest:
			// A 400 rejects the request itself, which every node gets
			// byte-identically — retrying elsewhere cannot help.
			err = &rejectedError{err}
		case http.StatusTooManyRequests:
			err = &throttledError{after: parseRetryAfter(resp.Header.Get("Retry-After")), err: err}
		}
		return nil, err
	}
	var doc serve.ShardResponse
	raw, err := io.ReadAll(resp.Body)
	if err == nil {
		err = doc.UnmarshalBinary(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: undecodable shard response: %w", nodeURL, err)
	}
	p := doc.Partial
	if p == nil || p.Start != start || p.End != end || (spaceName != "" && p.Space != spaceName) {
		return nil, fmt.Errorf("cluster: node %s answered the wrong shard (want %s[%d,%d))", nodeURL, spaceName, start, end)
	}
	return p, nil
}

// nodeModels is the slice of GET /v1/models this coordinator reads.
type nodeModels struct {
	Models []struct {
		Name   string `json:"name"`
		Space  string `json:"space"`
		Points int    `json:"points"`
	} `json:"models"`
}

// discover resolves the swept space's name and size from the first
// reachable node, cross-checking that every requested model is
// registered there over one space. Registry *contents* must agree
// across nodes for the sweep to mean anything; disagreement surfaces
// later as shard errors or a space-name mismatch.
func (c *Coordinator) discover(ctx context.Context) (size int, spaceName string, err error) {
	requested := c.cfg.Request.Models
	if c.cfg.Request.Model != "" {
		requested = []string{c.cfg.Request.Model}
	}
	var lastErr error
	for _, node := range c.nodes {
		reqCtx, cancel := context.WithTimeout(ctx, c.timeout())
		httpReq, reqErr := http.NewRequestWithContext(reqCtx, http.MethodGet, node+"/v1/models", nil)
		if reqErr != nil {
			cancel()
			return 0, "", reqErr
		}
		resp, doErr := c.client.Do(httpReq)
		if doErr != nil {
			cancel()
			lastErr = doErr
			c.logf("cluster: discovery: node %s unreachable: %v", node, doErr)
			continue
		}
		var doc nodeModels
		decErr := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		cancel()
		if decErr != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("node %s: HTTP %d (%v)", node, resp.StatusCode, decErr)
			c.logf("cluster: discovery: %v", lastErr)
			continue
		}
		names := requested
		if len(names) == 0 {
			if len(doc.Models) != 1 {
				return 0, "", fmt.Errorf("cluster: node %s serves %d models; the request must name one", node, len(doc.Models))
			}
			names = []string{doc.Models[0].Name}
		}
		for _, want := range names {
			found := false
			for _, m := range doc.Models {
				if m.Name != want {
					continue
				}
				found = true
				if spaceName == "" {
					spaceName, size = m.Space, m.Points
				} else if m.Space != spaceName || m.Points != size {
					return 0, "", fmt.Errorf("cluster: node %s: model %q spans space %s (%d points), others span %s (%d points)",
						node, want, m.Space, m.Points, spaceName, size)
				}
			}
			if !found {
				return 0, "", fmt.Errorf("cluster: node %s does not serve model %q", node, want)
			}
		}
		if size == 0 {
			return 0, "", fmt.Errorf("cluster: node %s reports an empty design space", node)
		}
		return size, spaceName, nil
	}
	return 0, "", fmt.Errorf("cluster: no node answered discovery; last error: %v", lastErr)
}

// planShards cuts [0, size) into contiguous shards whose boundaries
// are multiples of the chunk size, so each shard's per-chunk reduction
// sequence is a sub-sequence of the full run's.
func planShards(size, chunk, shardPoints, totalSlots int) []shardRange {
	if shardPoints <= 0 {
		target := DefaultShardsPerSlot * totalSlots
		if target < 1 {
			target = 1
		}
		shardPoints = (size + target - 1) / target
		if shardPoints > DefaultMaxShardPoints {
			shardPoints = DefaultMaxShardPoints
		}
	}
	if rem := shardPoints % chunk; rem != 0 {
		shardPoints += chunk - rem
	}
	var out []shardRange
	for lo := 0; lo < size; lo += shardPoints {
		out = append(out, shardRange{id: len(out), start: lo, end: min(size, lo+shardPoints)})
	}
	return out
}
