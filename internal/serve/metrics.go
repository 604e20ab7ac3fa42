package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// GET /metrics — Prometheus text exposition, stdlib only. This is the
// serve tier's production observability surface: request and latency
// histograms, coalesce batch sizes, cache hit counters, rate-limit
// rejections, and per-model counters, in one scrape, for any standard
// Prometheus scraper.
//
// Everything here reads atomics written on the request path; a scrape
// takes no locks the hot path contends on. Output ordering is fully
// deterministic — fixed family order, models in registration order,
// fixed bucket bounds — so two scrapes of an idle server are
// byte-identical and diffs are meaningful.

// nowMono is the single wall-clock read point for the serve tier
// (latency histograms, token-bucket refill). Measured time is exported
// observability, never an input to predictions — results stay pure
// functions of (inputs, seeds).
func nowMono() time.Time {
	return time.Now() //repolint:allow determinism -- wall time feeds latency histograms and token-bucket refill only, never results
}

// latencyBounds are the request-duration histogram's upper bounds in
// seconds. Fixed at compile time: scrapes never invent bucket layouts.
var latencyBounds = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// latencyHist is a fixed-bucket histogram maintained with atomics.
type latencyHist struct {
	buckets [len(latencyBounds) + 1]atomic.Int64 // last slot = +Inf
	count   atomic.Int64
	sumNs   atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	secs := d.Seconds()
	slot := len(latencyBounds)
	for i, ub := range latencyBounds {
		if secs <= ub {
			slot = i
			break
		}
	}
	h.buckets[slot].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// escapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double quote, and newline.
func escapeLabel(s string) string {
	// Fast path: nothing to escape (the overwhelmingly common case for
	// model names).
	clean := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '"' || c == '\n' {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var b bytes.Buffer
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// unescapeLabel inverts escapeLabel. It reports false on a dangling
// backslash, an unknown escape, or a raw character that escapeLabel
// would never emit (an unescaped quote or newline).
func unescapeLabel(s string) (string, bool) {
	var b bytes.Buffer
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			i++
			if i >= len(s) {
				return "", false
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", false
			}
		case '"', '\n':
			return "", false
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), true
}

// metricsWriter accumulates one exposition document.
type metricsWriter struct {
	b bytes.Buffer
}

func (w *metricsWriter) header(name, help, typ string) {
	w.b.WriteString("# HELP ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(help)
	w.b.WriteString("\n# TYPE ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(typ)
	w.b.WriteByte('\n')
}

// sample writes one line: name{labels} value. labels alternate
// key, value and values are escaped here.
func (w *metricsWriter) sample(name string, value float64, labels ...string) {
	w.b.WriteString(name)
	if len(labels) > 0 {
		w.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(labels[i])
			w.b.WriteString(`="`)
			w.b.WriteString(escapeLabel(labels[i+1]))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	w.b.WriteByte('\n')
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var mw metricsWriter

	// HTTP traffic.
	total := s.ctr.requests.Load()
	c4 := s.ctr.clientErrors.Load()
	c5 := s.ctr.serverErrors.Load()
	mw.header("repro_http_requests_total", "HTTP requests served, by response class.", "counter")
	mw.sample("repro_http_requests_total", float64(total-c4-c5), "class", "ok")
	mw.sample("repro_http_requests_total", float64(c4), "class", "4xx")
	mw.sample("repro_http_requests_total", float64(c5), "class", "5xx")
	mw.header("repro_http_in_flight", "Requests currently being handled.", "gauge")
	mw.sample("repro_http_in_flight", float64(s.ctr.inFlight.Load()))

	// Latency histogram (wall-measured; see nowMono).
	mw.header("repro_http_request_duration_seconds", "End-to-end request latency.", "histogram")
	var cum int64
	for i, ub := range latencyBounds {
		cum += s.lat.buckets[i].Load()
		mw.sample("repro_http_request_duration_seconds_bucket", float64(cum),
			"le", strconv.FormatFloat(ub, 'g', -1, 64))
	}
	cum += s.lat.buckets[len(latencyBounds)].Load()
	mw.sample("repro_http_request_duration_seconds_bucket", float64(cum), "le", "+Inf")
	mw.sample("repro_http_request_duration_seconds_sum", float64(s.lat.sumNs.Load())/1e9)
	mw.sample("repro_http_request_duration_seconds_count", float64(s.lat.count.Load()))

	// Admission control.
	rl := s.adm.stats()
	mw.header("repro_ratelimit_rejections_total", "Requests rejected with 429, by guard.", "counter")
	mw.sample("repro_ratelimit_rejections_total", float64(rl.RejectedRate), "reason", "rate")
	mw.sample("repro_ratelimit_rejections_total", float64(rl.RejectedInflight), "reason", "inflight")

	// Prediction cache.
	cs := s.reg.CacheStats()
	mw.header("repro_cache_hits_total", "Exact prediction cache hits.", "counter")
	mw.sample("repro_cache_hits_total", float64(cs.Hits))
	mw.header("repro_cache_misses_total", "Exact prediction cache misses.", "counter")
	mw.sample("repro_cache_misses_total", float64(cs.Misses))
	mw.header("repro_cache_evictions_total", "Exact prediction cache evictions.", "counter")
	mw.sample("repro_cache_evictions_total", float64(cs.Evictions))
	mw.header("repro_cache_entries", "Exact prediction cache live entries.", "gauge")
	mw.sample("repro_cache_entries", float64(cs.Entries))
	mw.header("repro_cache_capacity", "Exact prediction cache bound (0 = disabled).", "gauge")
	mw.sample("repro_cache_capacity", float64(cs.Capacity))

	// Per-model coalescing, in registration order.
	names := s.reg.Names()
	type modelRow struct {
		name    string
		version int64
		st      CoalesceStats
		hist    [nBatchBuckets]int64
		rows    int64
	}
	var rows []modelRow
	for _, name := range names {
		m, err := s.reg.Get(name)
		if err != nil {
			continue
		}
		row := modelRow{name: m.Name, version: m.Version, st: m.Stats()}
		row.hist, row.rows = m.coal.batchHistogram()
		rows = append(rows, row)
	}
	mw.header("repro_model_requests_total", "Single-point predictions answered, per model.", "counter")
	for _, m := range rows {
		mw.sample("repro_model_requests_total", float64(m.st.Requests), "model", m.name)
	}
	mw.header("repro_model_flushes_total", "Batched kernel flushes, per model.", "counter")
	for _, m := range rows {
		mw.sample("repro_model_flushes_total", float64(m.st.Flushes), "model", m.name)
	}
	mw.header("repro_model_version", "Live bundle version of each model alias.", "gauge")
	for _, m := range rows {
		mw.sample("repro_model_version", float64(m.version), "model", m.name)
	}
	mw.header("repro_coalesce_batch_size", "Rows per batched kernel call.", "histogram")
	for _, m := range rows {
		var cum int64
		for i, ub := range batchBuckets {
			cum += m.hist[i]
			mw.sample("repro_coalesce_batch_size_bucket", float64(cum),
				"model", m.name, "le", strconv.Itoa(ub))
		}
		cum += m.hist[nBatchBuckets-1]
		mw.sample("repro_coalesce_batch_size_bucket", float64(cum), "model", m.name, "le", "+Inf")
		mw.sample("repro_coalesce_batch_size_sum", float64(m.rows), "model", m.name)
		mw.sample("repro_coalesce_batch_size_count", float64(cum), "model", m.name)
	}

	// Jobs.
	if s.jobs != nil {
		infos := s.jobs.List()
		active := 0
		for _, info := range infos {
			if info.Status == JobQueued || info.Status == JobRunning {
				active++
			}
		}
		mw.header("repro_jobs_total", "Exploration jobs accepted by the store.", "counter")
		mw.sample("repro_jobs_total", float64(len(infos)))
		mw.header("repro_jobs_active", "Exploration jobs queued or running.", "gauge")
		mw.sample("repro_jobs_active", float64(active))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(mw.b.Bytes())
}
