package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// Fixed instants keep the bucket math deterministic — the limiter
// takes time as an argument precisely so tests never read a clock.
var t0 = time.Unix(1000, 0)

func TestLimiterTokenBucket(t *testing.T) {
	l := newLimiter(1, 2) // 1 token/s, burst 2
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", t0); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := l.allow("a", t0)
	if ok {
		t.Fatal("third immediate request admitted past burst 2")
	}
	if retry < time.Second || retry > maxRetrySecs*time.Second {
		t.Fatalf("retry hint %v outside [1s,%ds]", retry, maxRetrySecs)
	}
	// Another client is unaffected.
	if ok, _ := l.allow("b", t0); !ok {
		t.Fatal("independent client rejected")
	}
	// After the hinted wait, the bucket holds a whole token again.
	if ok, _ := l.allow("a", t0.Add(retry)); !ok {
		t.Fatal("request rejected after waiting the hinted Retry-After")
	}
}

func TestLimiterRetryScalesWithRate(t *testing.T) {
	l := newLimiter(0.1, 1) // one request per 10s
	l.allow("a", t0)
	ok, retry := l.allow("a", t0)
	if ok {
		t.Fatal("second request admitted")
	}
	if retry != 10*time.Second {
		t.Fatalf("retry hint %v, want 10s for rate 0.1", retry)
	}
	// The hint is capped so clients are never told to go away for long.
	l2 := newLimiter(0.001, 1)
	l2.allow("a", t0)
	if _, retry := l2.allow("a", t0); retry != maxRetrySecs*time.Second {
		t.Fatalf("retry hint %v, want the %ds cap", retry, maxRetrySecs)
	}
}

func TestLimiterClientTableBounded(t *testing.T) {
	l := newLimiter(100, 1)
	for i := 0; i < maxClients+10; i++ {
		l.allow(fmt.Sprintf("client-%d", i), t0)
	}
	if n := len(l.clients); n != maxClients {
		t.Fatalf("client table holds %d entries, bound is %d", n, maxClients)
	}
	if n := l.lru.Len(); n != maxClients {
		t.Fatalf("LRU list holds %d entries, bound is %d", n, maxClients)
	}
	// The earliest clients were evicted, the latest kept.
	if _, ok := l.clients["client-0"]; ok {
		t.Fatal("oldest client survived past the table bound")
	}
	if _, ok := l.clients[fmt.Sprintf("client-%d", maxClients+9)]; !ok {
		t.Fatal("newest client missing")
	}
}

func TestAdmissionRejectsWith429(t *testing.T) {
	ts, reg, _ := newTestServer(t, CoalesceOpts{Linger: time.Millisecond})
	srv := New(reg)
	srv.SetAdmission(0.001, 1, 0) // one request, then a long refill
	ts.Config.Handler = srv

	do := func() *http.Response {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/predict",
			strings.NewReader(`{"model":"synth","point":1}`))
		req.Header.Set("X-Client-ID", "tester")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := do(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request answered %d, want 200", resp.StatusCode)
	}
	resp := do()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	if st := srv.adm.stats(); st.RejectedRate == 0 {
		t.Fatalf("rate rejection not counted: %+v", st)
	}
	// Observability stays exempt: a rate-limited client can still watch
	// the server.
	for _, path := range []string{"/healthz", "/metrics", "/v1/models"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exempt path %s answered %d while rate-limited", path, resp.StatusCode)
		}
	}
}

func TestAdmissionInflightBudget(t *testing.T) {
	ts, reg, _ := newTestServer(t, CoalesceOpts{Linger: 50 * time.Millisecond})
	srv := New(reg)
	srv.SetAdmission(0, 0, 1) // no rate limit, one admitted request at a time
	ts.Config.Handler = srv

	const n = 8
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
				strings.NewReader(`{"model":"synth","point":1}`))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	ok, rejected := 0, 0
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	// The 50ms linger holds the first admitted request in flight while
	// the rest arrive, so at least one of each outcome is guaranteed.
	if ok == 0 || rejected == 0 {
		t.Fatalf("want both admitted and rejected requests, got ok=%d rejected=%d", ok, rejected)
	}
	if st := srv.adm.stats(); st.RejectedInflight != int64(rejected) {
		t.Fatalf("counted %d in-flight rejections, observed %d", st.RejectedInflight, rejected)
	}
}

func TestGatedPaths(t *testing.T) {
	for path, want := range map[string]bool{
		"/v1/predict":         true,
		"/v1/predict/batch":   true,
		"/v1/variance":        true,
		"/v1/sensitivity":     true,
		"/v1/sweep":           true,
		"/v1/explore":         true,
		"/healthz":            false,
		"/metrics":            false,
		"/v1/models":          false,
		"/v1/models/m/reload": false,
		"/v1/jobs":            false,
	} {
		if got := gatedPath(path); got != want {
			t.Errorf("gatedPath(%q) = %v, want %v", path, got, want)
		}
	}
}
