package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bundle"
)

// newCachedServer is newTestServer with the exact prediction cache
// bounded at entries.
func newCachedServer(t testing.TB, entries int, opts CoalesceOpts) (*httptest.Server, *Registry, *bundle.Bundle) {
	t.Helper()
	b := trainedBundle(t)
	reg := NewRegistry()
	reg.EnableCache(entries)
	if _, err := reg.Add("synth", b, opts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, reg, b
}

// TestCacheBitIdentityAllTiers is the cache's exactness proof: the
// first (computed, cache-filling) response and the second
// (cache-served) response are bit-identical to the ensemble's direct
// answer. JSON carries float64 at full round-trip precision, so == on
// the decoded values is a bit comparison.
func TestCacheBitIdentityAllTiers(t *testing.T) {
	ts, reg, b := newCachedServer(t, 1024, CoalesceOpts{Linger: time.Millisecond})
	t.Run("exact", func(t *testing.T) {
		for _, point := range []int{0, 7, 19, 39} {
			x := b.Encoder.EncodeIndex(point, nil)
			wantMean := make([]float64, 1)
			wantVar := make([]float64, 1)
			b.Ensemble.PredictBatch(0, x, 1, wantMean, wantVar)

			body := fmt.Sprintf(`{"model":"synth","point":%d}`, point)
			for _, label := range []string{"computed", "cached"} {
				_, out := postJSON(t, ts.URL+"/v1/predict", body)
				if got := out["prediction"].(float64); got != wantMean[0] {
					t.Fatalf("point %d (%s pass): prediction %v, ensemble says %v",
						point, label, got, wantMean[0])
				}
				if got := out["variance"].(float64); got != wantVar[0] {
					t.Fatalf("point %d (%s pass): variance %v, ensemble says %v",
						point, label, got, wantVar[0])
				}
			}
		}
	})
	st := reg.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses after repeat queries, got %+v", st)
	}
}

// TestCacheHitSkipsEnsemble proves a hit is served without touching
// the ensemble: the coalescer's request counter (every request that
// reaches the dispatch path) must not move on the cached pass.
func TestCacheHitSkipsEnsemble(t *testing.T) {
	ts, reg, _ := newCachedServer(t, 64, CoalesceOpts{Linger: time.Millisecond})
	body := `{"model":"synth","point":3}`
	postJSON(t, ts.URL+"/v1/predict", body) // fill
	m, err := reg.Get("synth")
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/v1/predict", body)
	}
	after := m.Stats()
	if after.Requests != before.Requests || after.Flushes != before.Flushes {
		t.Fatalf("cache hits reached the coalescer: before %+v, after %+v", before, after)
	}
	if st := reg.CacheStats(); st.Hits < 5 {
		t.Fatalf("expected >=5 hits, got %+v", st)
	}
}

// TestCacheHitAllocationFree pins the hot path: a cache hit performs
// no allocations (comparable-struct key, CLOCK reference bit instead
// of LRU list surgery).
func TestCacheHitAllocationFree(t *testing.T) {
	c := newPredCache(256)
	k := cacheKey{version: 1, index: 42}
	c.put(k, cacheVal{mean: 1.5, variance: 0.25})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.get(k); !ok {
			t.Fatal("lost the cached entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects per op; want 0", allocs)
	}
}

// TestCacheEvictionBounded fills a small cache far past capacity and
// checks the bound holds, evictions are counted, and entries stay
// addressable.
func TestCacheEvictionBounded(t *testing.T) {
	const capEntries = 32
	c := newPredCache(capEntries)
	for i := 0; i < 10*capEntries; i++ {
		c.put(cacheKey{version: 1, index: i}, cacheVal{mean: float64(i)})
	}
	st := c.stats()
	if st.Entries > capEntries+predCacheShards {
		// Shard capacity rounds up: at most one extra entry per shard.
		t.Fatalf("cache holds %d entries, bound was %d", st.Entries, capEntries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded despite 10x overfill")
	}
	found := 0
	for i := 0; i < 10*capEntries; i++ {
		if v, ok := c.peek(cacheKey{version: 1, index: i}); ok {
			if v.mean != float64(i) {
				t.Fatalf("entry %d corrupted: %v", i, v.mean)
			}
			found++
		}
	}
	if found != st.Entries {
		t.Fatalf("stats say %d entries, probing found %d", st.Entries, found)
	}
}

// TestCacheCLOCKPrefersUnreferenced checks the CLOCK policy at the
// shard level: a referenced (recently hit) entry survives an eviction
// that claims an unreferenced one.
func TestCacheCLOCKPrefersUnreferenced(t *testing.T) {
	sh := cacheShard{idx: make(map[cacheKey]int32), max: 2}
	k1 := cacheKey{index: 1}
	k2 := cacheKey{index: 2}
	k3 := cacheKey{index: 3}
	sh.put(k1, cacheVal{mean: 1})
	sh.put(k2, cacheVal{mean: 2})
	sh.get(k1) // sets k1's reference bit
	if evicted := sh.put(k3, cacheVal{mean: 3}); !evicted {
		t.Fatal("full shard did not evict")
	}
	if _, ok := sh.get(k1); !ok {
		t.Fatal("referenced entry was evicted ahead of the unreferenced one")
	}
	if _, ok := sh.get(k2); ok {
		t.Fatal("unreferenced entry survived the eviction")
	}
	if v, ok := sh.get(k3); !ok || v.mean != 3 {
		t.Fatalf("new entry missing after eviction: %v %v", v, ok)
	}
}

// TestCoalescerFlushComputesOnlyMisses: pre-filled keys are answered
// from the cache at flush time, and the kernel sees exactly the
// misses — the histogram's row total is the count of cold points.
func TestCoalescerFlushComputesOnlyMisses(t *testing.T) {
	b := trainedBundle(t)
	cache := newPredCache(64)
	c := newCoalescer(b.Ensemble, b.Encoder.Width(), CoalesceOpts{Linger: 20 * time.Millisecond, MaxBatch: 64}, cache)
	defer c.close()

	const warm, total = 6, 12
	for i := 0; i < warm; i++ {
		x := b.Encoder.EncodeIndex(i, nil)
		mean, vr := b.Ensemble.PredictVariance(x)
		cache.put(cacheKey{version: 1, index: i}, cacheVal{mean: mean, variance: vr})
	}
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := b.Encoder.EncodeIndex(i, nil)
			wantMean, wantVar := b.Ensemble.PredictVariance(x)
			mean, vr, err := c.predict(x, cacheKey{version: 1, index: i})
			if err != nil {
				errs <- err
				return
			}
			if mean != wantMean || vr != wantVar {
				errs <- fmt.Errorf("point %d: got (%v,%v), want (%v,%v)", i, mean, vr, wantMean, wantVar)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, rows := c.batchHistogram(); rows != total-warm {
		t.Fatalf("kernel computed %d rows; only the %d misses should reach it", rows, total-warm)
	}
	if st := c.stats(); st.Requests != total {
		t.Fatalf("coalescer answered %d requests, want %d", st.Requests, total)
	}
}

// retiredKernelNames are values of the retired "kernel" request field:
// both former tiers and the older "fast".
var retiredKernelNames = []string{"fast32", "exact", "fast"}

// checkKernelRejected asserts a 400 whose error names the "kernel"
// field.
func checkKernelRejected(t *testing.T, endpoint, kernel string, resp *http.Response, out map[string]any) {
	t.Helper()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%s with kernel %q answered %d, want 400", endpoint, kernel, resp.StatusCode)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, `"kernel"`) {
		t.Fatalf("%s with kernel %q: error %q does not name the field", endpoint, kernel, msg)
	}
}

// TestPredictRejectsUnknownKernel: the kernel-tier field is gone, so a
// body that still carries it — under any tier name — is a 400 naming
// the field on every prediction endpoint, not a silent fallback.
func TestPredictRejectsUnknownKernel(t *testing.T) {
	ts, _, _ := newTestServer(t, CoalesceOpts{})
	for _, kernel := range retiredKernelNames {
		for _, c := range []struct{ endpoint, body string }{
			{"/v1/predict", `{"model":"synth","point":1,"kernel":%q}`},
			{"/v1/predict/batch", `{"model":"synth","points":[1,2],"kernel":%q}`},
			{"/v1/variance", `{"model":"synth","points":[1,2],"kernel":%q}`},
		} {
			resp, out := postJSON(t, ts.URL+c.endpoint, fmt.Sprintf(c.body, kernel))
			checkKernelRejected(t, c.endpoint, kernel, resp, out)
		}
	}
}
