package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/studies"
)

// The serve workload: a closed loop of single-point predicts over two
// connections against an in-process server on a loopback listener.
const (
	serveConns = 2 // = nproc on the 2-vCPU machine the bounds were set on
	// serveCache is smaller than the zipf working set, so the cache
	// answers the hot head and the coalescer plus kernel the tail: about
	// 80% hits, far enough from 50% and 90% that p50 stays on the hit
	// path and p90 on the miss path.
	serveCache = 1024
	serveZipfS = 1.1
	// serveWarmup requests fill the cache before timing starts.
	serveWarmup = 4096
	// serveSchedule is the schedule's length; a run that outgrows it
	// wraps around.
	serveSchedule = 1 << 20
	// spanHeader carries the client's span ID to the server, so the
	// handler's span joins the request's trace.
	spanHeader = "X-Perfbench-Span"
)

// prediction is what a predict must answer for one design point.
type prediction struct{ mean, variance float64 }

// loadResult is what the closed loop saw: the round trip of every
// correct answer, untraced and traced, and the predicts that failed or
// answered wrong bits. Round trips are kept as 4-byte nanosecond counts
// (saturating at 4.29 s), so the record adds little to the process's
// peak memory however many predicts a run sends.
type loadResult struct {
	plain, traced []uint32
	sent          int
	failed        int
	problems      []string // the first few failures, described
}

// endpoint is one running server plus the load generator's clients.
type endpoint struct {
	base    string
	http    *http.Server
	reg     *serve.Registry
	clients []*http.Client // the load generator's connections, one each
	scraper *http.Client
	served  chan error
	conns   atomic.Int64
}

func runServe(rc runConfig) (*report, error) {
	rep := newReport()
	st := studies.MemorySystem()
	sched := zipfSchedule(rc.seed, st.Space.Size(), serveSchedule, serveZipfS)

	held := heldOut(st, rc.seed)
	var setups []float64
	var fxs []*fixture
	var ep *endpoint
	for k := 0; k < setupReps; k++ {
		if ep != nil {
			if err := ep.close(); err != nil {
				return nil, err
			}
		}
		s := rc.tr.Begin("setup", 0)
		start := time.Now()
		fx, err := buildFixture(st, rc.seed, held, rc.work, rc.tr, s.id)
		if err != nil {
			return nil, err
		}
		ep, err = startServer(fx, rc.tr)
		if err != nil {
			return nil, err
		}
		var pos atomic.Int64
		warm := ep.load(sched, &pos, serveWarmup, time.Time{}, nil, nil)
		setups = append(setups, time.Since(start).Seconds())
		rc.tr.End(s)
		fxs = append(fxs, fx)
		if warm.failed > 0 {
			rep.problem("warm-up: %d of %d predicts failed, first: %s", warm.failed, warm.sent, warm.problems[0])
		}
	}
	defer ep.close()
	rep.set("setup_s", median(setups), len(setups))
	fx := fxs[len(fxs)-1]

	// What every answer must be: the in-process prediction's bits.
	want := make([]prediction, st.Space.Size())
	for i := range want {
		want[i].mean, want[i].variance = fx.bundle.Ensemble.PredictVariance(fx.bundle.Encoder.EncodeIndex(i, nil))
	}

	before, err := ep.scrape()
	if err != nil {
		return nil, err
	}
	pos := atomic.Int64{}
	pos.Store(serveWarmup)
	begin := time.Now()
	res := ep.load(sched, &pos, math.MaxInt64, begin.Add(rc.seconds), want, rc.tr)
	elapsed := time.Since(begin)
	rep.set("peak_rss_mb", peakRSSMB(), 1)
	after, err := ep.scrape()
	if err != nil {
		return nil, err
	}
	if err := ep.close(); err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = res.sent, res.failed
	for _, p := range res.problems {
		rep.problem("%s", p)
	}
	if res.failed > len(res.problems) {
		rep.problem("%d of %d predicts failed or answered wrong bits", res.failed, res.sent)
	}
	untraced, traced := toMillis(res.plain), toMillis(res.traced)
	all := append(append([]float64(nil), untraced...), traced...)
	rep.setTimings("predicts", all)
	rep.also("predict_p50_ms", "ms", median(all), len(all))
	rep.also("predict_p90_ms", "ms", percentile(all, 90), len(all))

	hits, err1 := after.delta(before, "repro_cache_hits_total")
	misses, err2 := after.delta(before, "repro_cache_misses_total")
	evictions, err3 := after.delta(before, "repro_cache_evictions_total")
	flushes, err4 := after.delta(before, `repro_model_flushes_total{model="`+fixtureName+`"}`)
	rows, err5 := after.delta(before, `repro_coalesce_batch_size_sum{model="`+fixtureName+`"}`)
	rate, err6 := after.delta(before, `repro_ratelimit_rejections_total{reason="rate"}`)
	inflight, err7 := after.delta(before, `repro_ratelimit_rejections_total{reason="inflight"}`)
	if err := errors.Join(err1, err2, err3, err4, err5, err6, err7); err != nil {
		return nil, err
	}
	hitRatio := hits / (hits + misses)
	rep.line("throughput %.1f req/s (not gated) over %d load connections; the server accepted %d, counting the /metrics scraper's; cache hit ratio %.4f",
		float64(res.sent)/elapsed.Seconds(), serveConns, ep.conns.Load(), hitRatio)

	if err := fixtureReport(rc, rep, st, fxs, held); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		rep.set("cache.hit_ratio", hitRatio, int(hits+misses))
		rep.set("cache.evictions", evictions, int(hits+misses))
		rep.set("coalesce.flushes", flushes, int(misses))
		rep.set("coalesce.rows_per_flush", rows/flushes, int(flushes))
		rep.set("serve.rejected", rate+inflight, res.sent)
		serveLayers(rc, rep, traced, untraced)
	}
	return rep, nil
}

// serveLayers splits each traced predict's round trip into time inside
// Server.ServeHTTP and the rest — HTTP client, loopback TCP, JSON.
func serveLayers(rc runConfig, rep *report, traced, untraced []float64) {
	spans := rc.tr.Spans()
	self := selfTimes(spans)
	var handler, outside []float64
	for _, s := range spans {
		switch s.Name {
		case "serve.handler":
			handler = append(handler, millis(s.Dur()))
		case "predict":
			outside = append(outside, millis(self[s.ID]))
		}
	}
	rep.set("serve.handler_p50_ms", median(handler), len(handler))
	rep.set("serve.handler_p90_ms", percentile(handler, 90), len(handler))
	rep.set("net.p50_ms", median(outside), len(outside))
	rep.set("predict.p99_ms", percentile(traced, 99), len(traced))
	overhead := median(traced) / median(untraced)
	rep.set("trace.overhead", overhead, len(traced))
	rep.line("accounting: handler p50 %.4f + net p50 %.4f = %.4f ms; traced predict p50 %.4f ms (n=%d), untraced %.4f ms (n=%d)",
		median(handler), median(outside), median(handler)+median(outside), median(traced), len(traced), median(untraced), len(untraced))
	rep.line("tracing overhead: predict_p50_ms traced/untraced = %.4f", overhead)
}

// startServer registers the fixture in a fresh registry with the
// prediction cache on, and serves it on a loopback port. A non-nil
// tracer wraps the server to record a span around each traced request.
func startServer(fx *fixture, tr *Tracer) (*endpoint, error) {
	reg := serve.NewRegistry()
	reg.EnableCache(serveCache)
	if _, err := reg.Add(fixtureName, fx.bundle, serve.CoalesceOpts{}); err != nil {
		return nil, err
	}
	var h http.Handler = serve.New(reg)
	if tr != nil {
		h = tracedHandler{next: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	ep := &endpoint{base: "http://" + ln.Addr().String(), reg: reg, served: make(chan error, 1)}
	ep.http = &http.Server{Handler: h, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			ep.conns.Add(1)
		}
	}}
	go func() { ep.served <- ep.http.Serve(ln) }()
	for i := 0; i <= serveConns; i++ {
		c := &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		if i == serveConns {
			ep.scraper = c
		} else {
			ep.clients = append(ep.clients, c)
		}
	}
	return ep, nil
}

// close stops the server, waits for it to exit, and stops the model's
// coalescer.
func (ep *endpoint) close() error {
	if ep.http == nil {
		return nil
	}
	for _, c := range append(ep.clients, ep.scraper) {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ep.http.Shutdown(ctx)
	if serr := <-ep.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	ep.reg.Close()
	ep.http = nil
	return err
}

// load runs the closed loop: each connection sends its next predict as
// soon as the previous one is answered, taking schedule positions from
// pos, until limit requests were sent or the deadline (if non-zero)
// passes. Answers are checked against want when it is non-nil. With a
// tracer, odd positions are traced and even ones not, so one run
// compares both.
func (ep *endpoint) load(sched []int32, pos *atomic.Int64, limit int64, deadline time.Time, want []prediction, tr *Tracer) loadResult {
	const maxProblems = 3
	start := pos.Load()
	per := make([]loadResult, len(ep.clients))
	var wg sync.WaitGroup
	for c, client := range ep.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &per[c]
			for {
				p := pos.Add(1) - 1
				if p-start >= limit || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				var t *Tracer
				if p%2 == 1 {
					t = tr
				}
				index := sched[p%int64(len(sched))]
				r.sent++
				rtt, got, err := ep.predict(client, index, t)
				if err == nil && want != nil && (math.Float64bits(got.mean) != math.Float64bits(want[index].mean) ||
					math.Float64bits(got.variance) != math.Float64bits(want[index].variance)) {
					err = fmt.Errorf("served (%v, %v), in-process PredictVariance (%v, %v)",
						got.mean, got.variance, want[index].mean, want[index].variance)
				}
				if err != nil {
					r.failed++
					if len(r.problems) < maxProblems {
						r.problems = append(r.problems, fmt.Sprintf("predict point %d: %v", index, err))
					}
					continue
				}
				ns := uint32(min(rtt, math.MaxUint32))
				if t != nil {
					r.traced = append(r.traced, ns)
				} else {
					r.plain = append(r.plain, ns)
				}
			}
		}()
	}
	wg.Wait()
	var out loadResult
	for _, r := range per {
		out.plain = append(out.plain, r.plain...)
		out.traced = append(out.traced, r.traced...)
		out.sent += r.sent
		out.failed += r.failed
		out.problems = append(out.problems, r.problems...)
	}
	return out
}

// predict sends one single-point predict and decodes the answer.
func (ep *endpoint) predict(client *http.Client, index int32, tr *Tracer) (time.Duration, prediction, error) {
	root := tr.Begin("predict", 0)
	start := time.Now()
	body := []byte(`{"point":` + strconv.Itoa(int(index)) + `}`)
	req, err := http.NewRequest(http.MethodPost, ep.base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, prediction{}, err
	}
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(root.id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, prediction{}, err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, prediction{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, prediction{}, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf))
	}
	var got struct {
		Point      int     `json:"point"`
		Prediction float64 `json:"prediction"`
		Variance   float64 `json:"variance"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		return 0, prediction{}, err
	}
	if got.Point != int(index) {
		return 0, prediction{}, fmt.Errorf("answered point %d", got.Point)
	}
	rtt := time.Since(start)
	tr.End(root)
	return rtt, prediction{got.Prediction, got.Variance}, nil
}

// scrape reads the server's /metrics.
func (ep *endpoint) scrape() (promSamples, error) {
	resp, err := ep.scraper.Get(ep.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(string(buf))
}

// toMillis converts nanosecond round trips to milliseconds.
func toMillis(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// tracedHandler records a span around Server.ServeHTTP for requests
// that carry a client span ID.
type tracedHandler struct {
	next http.Handler
	tr   *Tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if err != nil || parent == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	s := h.tr.Begin("serve.handler", parent)
	h.next.ServeHTTP(w, r)
	h.tr.End(s)
}
