package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrape fetches /metrics and returns the body plus a flat map of
// sample line → value for exact-line assertions.
func scrape(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return string(raw), samples
}

// TestMetricsEndpoint drives a few requests through a cached server
// and checks the counters a load harness scrapes: cache and coalescer
// tallies, and per-class request deltas (each scrape counts itself as
// an ok request while it runs).
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newCachedServer(t, 128, CoalesceOpts{Linger: time.Millisecond})
	_, before := scrape(t, ts.URL)
	// Traffic: two identical predicts (miss then hit), one bad request
	// and one unknown model for the 4xx class.
	postJSON(t, ts.URL+"/v1/predict", `{"model":"synth","point":5}`)
	postJSON(t, ts.URL+"/v1/predict", `{"model":"synth","point":5}`)
	for body, status := range map[string]int{
		`{"bogus":1}`:                http.StatusBadRequest,
		`{"model":"nope","point":0}`: http.StatusNotFound,
	} {
		if resp, _ := postJSON(t, ts.URL+"/v1/predict", body); resp.StatusCode != status {
			t.Fatalf("predict %s: status %d, want %d", body, resp.StatusCode, status)
		}
	}

	body, samples := scrape(t, ts.URL)
	for line, want := range map[string]float64{
		`repro_cache_hits_total`:                          1,
		`repro_cache_misses_total`:                        1,
		`repro_cache_entries`:                             1,
		`repro_cache_capacity`:                            128,
		`repro_http_requests_total{class="4xx"}`:          2,
		`repro_http_requests_total{class="5xx"}`:          0,
		`repro_model_requests_total{model="synth"}`:       1, // the hit never reached the coalescer
		`repro_ratelimit_rejections_total{reason="rate"}`: 0,
	} {
		if got, ok := samples[line]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", line, got, ok, want)
		}
	}
	// Two predicts plus this scrape since the first one.
	const ok = `repro_http_requests_total{class="ok"}`
	if got := samples[ok] - before[ok]; got != 3 {
		t.Errorf("%s delta %v, want 3", ok, got)
	}
	if f := samples[`repro_model_flushes_total{model="synth"}`]; f < 1 || f > samples[`repro_model_requests_total{model="synth"}`] {
		t.Errorf("repro_model_flushes_total = %v, want between 1 and the coalesced request count", f)
	}
	// Histograms expose cumulative buckets, sum and count.
	for _, family := range []string{
		`repro_http_request_duration_seconds_bucket{le="+Inf"}`,
		"repro_http_request_duration_seconds_sum",
		"repro_http_request_duration_seconds_count",
		`repro_coalesce_batch_size_bucket{model="synth",le="+Inf"}`,
		`repro_coalesce_batch_size_sum{model="synth"}`,
	} {
		if _, ok := samples[family]; !ok {
			t.Errorf("missing %s in:\n%s", family, body)
		}
	}
	if samples[`repro_http_request_duration_seconds_bucket{le="+Inf"}`] < 3 {
		t.Error("latency histogram missed requests")
	}
}

func TestMetricsDeterministicOrder(t *testing.T) {
	ts, _, _ := newTestServer(t, CoalesceOpts{})
	a, _ := scrape(t, ts.URL)
	b, _ := scrape(t, ts.URL)
	// The only drift between two idle scrapes is the scrape traffic
	// itself (request counters and latency observations); family and
	// label ordering must be byte-stable. Compare structure: the
	// sequence of sample keys.
	keys := func(doc string) string {
		var sb strings.Builder
		for _, line := range strings.Split(doc, "\n") {
			if line == "" {
				continue
			}
			if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
				sb.WriteString(line[:i])
			} else {
				sb.WriteString(line)
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if keys(a) != keys(b) {
		t.Fatalf("scrape structure drifted between identical scrapes:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestLabelEscapeRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"plain",
		`back\slash`,
		`qu"ote`,
		"new\nline",
		`all "three" \ at
once`,
		"trailing backslash \\",
	}
	for _, s := range cases {
		esc := escapeLabel(s)
		if strings.ContainsAny(esc, "\n\"") {
			// Escaped values must be safe to embed between quotes.
			if strings.Contains(esc, "\n") || containsUnescapedQuote(esc) {
				t.Errorf("escapeLabel(%q) = %q still contains raw specials", s, esc)
			}
		}
		back, ok := unescapeLabel(esc)
		if !ok || back != s {
			t.Errorf("round trip broke: %q -> %q -> (%q, %v)", s, esc, back, ok)
		}
	}
	// Invalid escapes are rejected, not mangled.
	for _, bad := range []string{`\`, `\x`, "raw\nnewline", `raw"quote`} {
		if out, ok := unescapeLabel(bad); ok {
			t.Errorf("unescapeLabel(%q) accepted invalid input as %q", bad, out)
		}
	}
}

func containsUnescapedQuote(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return true
		}
	}
	return false
}
