package serve

import (
	"container/list"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control: under overload the server must degrade into fast,
// honest rejection (429 + Retry-After) instead of latency collapse.
// Two independent guards cover the two overload shapes:
//
//   - a per-client token bucket caps sustained request *rate*, so one
//     hot client cannot starve the rest (clients identify themselves
//     with X-Client-ID; anonymous traffic is keyed by remote host);
//   - a bounded in-flight budget caps *concurrency*, so a burst that
//     passes every bucket still cannot pile unbounded work onto the
//     coalescers.
//
// Rejection is the fast path by design — one mutex-guarded map probe
// (bucket) or one atomic add (budget), no body read, no model work —
// benchmarked in bench_test.go and gated in BENCH_serve.json. Health,
// stats, metrics, model listing and the reload endpoint are exempt so
// operators can always observe and roll a drowning server.

// maxClients bounds the limiter's per-client state; the least recently
// seen client is dropped first, re-admitted with a full bucket on its
// next request. 8k clients × ~64 bytes keeps the table trivially small.
const maxClients = 8192

// retry bounds for the Retry-After hint, in seconds.
const (
	minRetrySecs = 1
	maxRetrySecs = 30
)

// clientBucket is one client's token-bucket state.
type clientBucket struct {
	id     string
	tokens float64
	last   time.Time
}

// limiter is a per-client token-bucket rate limiter with LRU-bounded
// client state.
type limiter struct {
	mu      sync.Mutex
	rate    float64 // tokens (requests) added per second
	burst   float64 // bucket capacity
	clients map[string]*list.Element
	lru     *list.List // front = most recently seen, values *clientBucket
}

func newLimiter(rate float64, burst int) *limiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &limiter{
		rate:    rate,
		burst:   b,
		clients: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// allow spends one token from id's bucket, reporting whether the
// request is admitted and — when it is not — how long the client
// should wait before the bucket holds a whole token again.
func (l *limiter) allow(id string, now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, seen := l.clients[id]
	if !seen {
		if len(l.clients) >= maxClients {
			oldest := l.lru.Back()
			l.lru.Remove(oldest)
			delete(l.clients, oldest.Value.(*clientBucket).id)
		}
		el = l.lru.PushFront(&clientBucket{id: id, tokens: l.burst, last: now})
		l.clients[id] = el
	}
	b := el.Value.(*clientBucket)
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
	}
	b.last = now
	l.lru.MoveToFront(el)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	secs := math.Ceil((1 - b.tokens) / l.rate)
	secs = math.Min(math.Max(secs, minRetrySecs), maxRetrySecs)
	return false, time.Duration(secs) * time.Second
}

// admission is the server's configured overload policy.
type admission struct {
	lim         *limiter
	maxInflight int64

	inflight       atomic.Int64
	rejectRate     atomic.Int64
	rejectInflight atomic.Int64
}

// RateLimitStats reports the admission-control counters.
type RateLimitStats struct {
	// RejectedRate counts 429s from per-client token buckets,
	// RejectedInflight 429s from the bounded in-flight budget.
	RejectedRate     int64 `json:"rejected_rate"`
	RejectedInflight int64 `json:"rejected_inflight"`
}

// SetAdmission configures overload policy: rate requests/second per
// client with burst headroom (rate <= 0 disables the bucket), and at
// most maxInflight concurrently-admitted model requests (<= 0
// disables the budget). Call before serving; the policy is not
// synchronized afterwards (its counters are).
func (s *Server) SetAdmission(rate float64, burst, maxInflight int) {
	s.adm = &admission{lim: newLimiter(rate, burst), maxInflight: int64(maxInflight)}
}

// gatedPath reports whether admission control applies to path: the
// model-work endpoints. Observability (/healthz, /metrics, /v1/models,
// /v1/jobs) and reload stay exempt, so a saturated server
// can still be watched, diagnosed, and rolled.
func gatedPath(path string) bool {
	switch {
	case strings.HasPrefix(path, "/v1/predict"),
		strings.HasPrefix(path, "/v1/variance"),
		strings.HasPrefix(path, "/v1/sensitivity"),
		strings.HasPrefix(path, "/v1/sweep"),
		strings.HasPrefix(path, "/v1/explore"):
		return true
	}
	return false
}

// clientID keys the token bucket: the self-reported X-Client-ID when
// present (the cluster coordinator and loadgen set it), otherwise the
// remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// reject answers a request turned away by admission control.
func reject(w http.ResponseWriter, retryAfter time.Duration, reason string) {
	secs := int(retryAfter / time.Second)
	if secs < minRetrySecs {
		secs = minRetrySecs
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, "over capacity (%s); retry after %ds", reason, secs)
}

// admitAndServe applies admission control ahead of the mux. Rejection
// never reads the body and never touches a model — the whole point is
// that saying no stays cheap when everything else is slow.
func (s *Server) admitAndServe(w http.ResponseWriter, r *http.Request) {
	a := s.adm
	if a == nil || !gatedPath(r.URL.Path) {
		s.mux.ServeHTTP(w, r)
		return
	}
	if a.lim != nil {
		if ok, retry := a.lim.allow(clientID(r), nowMono()); !ok {
			a.rejectRate.Add(1)
			reject(w, retry, "rate limit")
			return
		}
	}
	if a.maxInflight > 0 {
		if a.inflight.Add(1) > a.maxInflight {
			a.inflight.Add(-1)
			a.rejectInflight.Add(1)
			reject(w, time.Second, "in-flight budget")
			return
		}
		defer a.inflight.Add(-1)
	}
	s.mux.ServeHTTP(w, r)
}

func (a *admission) stats() RateLimitStats {
	if a == nil {
		return RateLimitStats{}
	}
	return RateLimitStats{
		RejectedRate:     a.rejectRate.Load(),
		RejectedInflight: a.rejectInflight.Load(),
	}
}
