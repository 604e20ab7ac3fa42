package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/stats"
)

// trainedBundleVariant trains on the same space as trainedBundle but
// from a different sample, so its predictions are distinguishable —
// the reload tests need to see the cutover in the answers.
func trainedBundleVariant(t testing.TB) *bundle.Bundle {
	t.Helper()
	sp := testSpace()
	enc := encoding.NewEncoder(sp)
	rng := stats.NewRNG(91)
	train := sp.Sample(rng, 30)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{testTarget(sp, idx)}
	}
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 40
	cfg.Train.Patience = 10
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(sp, ens, bundle.Meta{Study: "synth", App: "variant", Metric: "IPC", Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeBundle(t testing.TB, b *bundle.Bundle, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReloadVersionCutover rolls an alias to a different artifact and
// checks the swap end to end: version bump in the response and in
// /v1/models, and post-reload predictions bit-identical to the new
// ensemble — including through the prediction cache, whose
// version-carrying keys must never serve the old bundle's values.
func TestReloadVersionCutover(t *testing.T) {
	b1 := trainedBundle(t)
	b2 := trainedBundleVariant(t)
	p1 := writeBundle(t, b1, "v1.bundle.json")
	p2 := writeBundle(t, b2, "v2.bundle.json")

	reg := NewRegistry()
	reg.EnableCache(256)
	if _, err := reg.AddFile("synth", p1, CoalesceOpts{Linger: time.Millisecond}, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})

	const point = 11
	x := b1.Encoder.EncodeIndex(point, nil)
	want1, _ := b1.Ensemble.PredictVariance(x)
	want2, _ := b2.Ensemble.PredictVariance(x)
	if want1 == want2 {
		t.Fatal("test bundles predict identically; the cutover would be invisible")
	}

	body := fmt.Sprintf(`{"model":"synth","point":%d}`, point)
	// Warm the cache against version 1.
	for i := 0; i < 2; i++ {
		_, out := postJSON(t, ts.URL+"/v1/predict", body)
		if got := out["prediction"].(float64); got != want1 {
			t.Fatalf("pre-reload prediction %v, want %v", got, want1)
		}
	}

	resp, out := postJSON(t, ts.URL+"/v1/models/synth/reload", fmt.Sprintf(`{"path":%q}`, p2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload answered %d: %v", resp.StatusCode, out)
	}
	if got, prev := out["version"].(float64), out["previous_version"].(float64); got != 2 || prev != 1 {
		t.Fatalf("reload reported version %v (previous %v), want 2 (previous 1)", got, prev)
	}

	// The alias now answers with the new ensemble — the version-1 cache
	// entry is unreachable by construction.
	for i := 0; i < 2; i++ {
		_, out := postJSON(t, ts.URL+"/v1/predict", body)
		if got := out["prediction"].(float64); got != want2 {
			t.Fatalf("post-reload prediction %v, want new ensemble's %v", got, want2)
		}
	}

	mresp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var models map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	entry := models["models"].([]any)[0].(map[string]any)
	if v := entry["version"].(float64); v != 2 {
		t.Fatalf("/v1/models reports version %v, want 2", v)
	}
}

// TestReloadUnderLoad is the zero-drop proof: clients hammer
// /v1/predict while the alias is rolled repeatedly; every single
// request must answer 200. Requests caught on the displaced coalescer
// are retried against the new version inside the handler. It runs
// twice: with admission control off, and armed as a hardened
// deployment runs it, with rate and in-flight headroom far above this
// load — an armed limiter with headroom must shed nothing, and the
// cache must still answer hits.
func TestReloadUnderLoad(t *testing.T) {
	path := writeBundle(t, trainedBundle(t), "m.bundle.json")
	for _, tc := range []struct {
		name  string
		armed bool
	}{{"open", false}, {"armed-limiter", true}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			reg.EnableCache(128)
			if _, err := reg.AddFile("synth", path, CoalesceOpts{Linger: time.Millisecond}, 0); err != nil {
				t.Fatal(err)
			}
			srv := New(reg)
			if tc.armed {
				srv.SetAdmission(50000, 10000, 256)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(func() {
				ts.Close()
				reg.Close()
			})

			const clients = 8
			var (
				stop     atomic.Bool
				done     sync.WaitGroup
				total    atomic.Int64
				failures atomic.Int64
				shed     atomic.Int64
			)
			for w := 0; w < clients; w++ {
				done.Add(1)
				go func(w int) {
					defer done.Done()
					for i := 0; !stop.Load(); i++ {
						body := fmt.Sprintf(`{"model":"synth","point":%d}`, (w*5+i)%40)
						resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
						if err != nil {
							failures.Add(1)
							continue
						}
						if resp.StatusCode == http.StatusTooManyRequests {
							shed.Add(1)
						}
						if resp.StatusCode != http.StatusOK {
							failures.Add(1)
						}
						resp.Body.Close()
						total.Add(1)
					}
				}(w)
			}

			const rolls = 5
			for i := 0; i < rolls; i++ {
				time.Sleep(15 * time.Millisecond)
				resp, out := postJSON(t, ts.URL+"/v1/models/synth/reload", "{}")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("reload %d answered %d: %v", i, resp.StatusCode, out)
				}
			}
			time.Sleep(15 * time.Millisecond)
			stop.Store(true)
			done.Wait()

			if n := shed.Load(); n != 0 {
				t.Fatalf("%d of %d requests answered 429; admission with headroom must shed nothing", n, total.Load())
			}
			if n := failures.Load(); n != 0 {
				t.Fatalf("%d of %d requests failed across %d reloads; a roll must drop nothing",
					n, total.Load(), rolls)
			}
			if total.Load() == 0 {
				t.Fatal("load generator sent no requests; the test proved nothing")
			}
			if hits := reg.CacheStats().Hits; hits == 0 {
				t.Fatalf("no cache hits across %d requests over 40 points", total.Load())
			}
			m, err := reg.Get("synth")
			if err != nil {
				t.Fatal(err)
			}
			if m.Version != rolls+1 {
				t.Fatalf("final version %d, want %d after %d reloads", m.Version, rolls+1, rolls)
			}
		})
	}
}

func TestReloadErrors(t *testing.T) {
	b := trainedBundle(t)
	reg := NewRegistry()
	if _, err := reg.Add("mem", b, CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})

	// Unknown alias.
	resp, _ := postJSON(t, ts.URL+"/v1/models/nope/reload", "{}")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown alias reload answered %d, want 404", resp.StatusCode)
	}
	// In-memory model without an explicit path.
	resp, _ = postJSON(t, ts.URL+"/v1/models/mem/reload", "{}")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-memory reload answered %d, want 409", resp.StatusCode)
	}
	// ...but an explicit path makes it reloadable.
	path := writeBundle(t, b, "mem.bundle.json")
	resp, out := postJSON(t, ts.URL+"/v1/models/mem/reload", fmt.Sprintf(`{"path":%q}`, path))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit-path reload answered %d: %v", resp.StatusCode, out)
	}
	// A bad file leaves the alias serving the old version.
	resp, _ = postJSON(t, ts.URL+"/v1/models/mem/reload", `{"path":"/does/not/exist.json"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("missing-file reload answered %d, want 409", resp.StatusCode)
	}
	if _, err := reg.Get("mem"); err != nil {
		t.Fatal("failed reload broke the alias:", err)
	}
}
