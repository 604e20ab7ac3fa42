package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

// TestMain lets a test run this binary as the serve command itself:
// started with "serve" as its first argument, it runs main on the
// arguments that follow instead of running the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPprofHandlerSmoke pins the -pprof surface: the dedicated mux
// answers the profile index and the cheap always-available profiles,
// and nothing outside /debug/pprof/ exists on it.
func TestPprofHandlerSmoke(t *testing.T) {
	ts := httptest.NewServer(pprofHandler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	status, body := get("/debug/pprof/")
	if status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("profile index: status %d, body %.80q", status, body)
	}
	if status, _ := get("/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("cmdline profile: status %d", status)
	}
	if status, body := get("/debug/pprof/goroutine?debug=1"); status != http.StatusOK || !strings.Contains(body, "goroutine profile") {
		t.Fatalf("goroutine profile: status %d, body %.80q", status, body)
	}
	if status, _ := get("/v1/models"); status != http.StatusNotFound {
		t.Fatalf("the pprof listener must serve profiles only, got status %d for /v1/models", status)
	}
}

// TestServeSIGTERMMidSoakDrainsCleanly runs a real serve process under
// sustained single-point traffic, sends it SIGTERM mid-load, and
// requires a clean drain:
//
//   - no response is cut off once its headers arrived (no body read
//     error: accepted work is finished, never abandoned),
//   - dials after the signal are refused (the listener closed first),
//   - the process exits 0 inside its -drain budget.
func TestServeSIGTERMMidSoakDrainsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real serve process under load; skipped with -short")
	}
	dir := t.TempDir()
	bundlePath := filepath.Join(dir, "synth.json")
	if err := synthBundle(t).WriteFile(bundlePath); err != nil {
		t.Fatal(err)
	}

	// Reserve a port, free it, and hand it to the server.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	const drain = 10 * time.Second
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "serve", "-addr", addr, "-model", "synth="+bundlePath, "-jobs", "0", "-drain", drain.String())
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	exited := make(chan struct{})
	go func() {
		exitErr = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() // fails harmlessly once the process has exited
		<-exited
		if t.Failed() {
			t.Logf("serve output:\n%s", out.String())
		}
	})

	target := "http://" + addr
	if err := waitReady(target, exited, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Keep-alives off, so every request dials afresh: once the listener
	// closes, a request reads as a refused dial, never as a stale
	// connection racing the drain.
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	var (
		signalled, gone          atomic.Bool
		okBefore, refusedAfter   atomic.Int64
		cutOff, statuses, others atomic.Int64
		wg                       sync.WaitGroup
	)
	const clients = 16
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				last := gone.Load() // the server has exited: one more try, then stop
				after := signalled.Load()
				body := fmt.Sprintf(`{"model":"synth","point":%d}`, (w*7+i)%40)
				resp, err := client.Post(target+"/v1/predict", "application/json", strings.NewReader(body))
				switch {
				case err != nil && after && errors.Is(err, syscall.ECONNREFUSED):
					refusedAfter.Add(1)
				case err != nil:
					others.Add(1)
				default:
					_, rerr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch {
					case rerr != nil:
						cutOff.Add(1)
					case resp.StatusCode != http.StatusOK:
						statuses.Add(1)
					case !after:
						okBefore.Add(1)
					}
				}
				if last {
					return
				}
			}
		}(w)
	}
	defer func() {
		gone.Store(true)
		wg.Wait()
	}()

	time.Sleep(time.Second) // traffic in flight
	signalled.Store(true)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	termAt := time.Now()
	select {
	case <-exited:
	case <-time.After(drain + 5*time.Second):
		t.Fatalf("serve did not exit within its %v drain budget", drain)
	}
	took := time.Since(termAt)
	gone.Store(true)
	wg.Wait()

	t.Logf("exit after %v; %d ok before SIGTERM, %d refused after, %d cut off, %d non-200, %d other errors",
		took.Round(time.Millisecond), okBefore.Load(), refusedAfter.Load(), cutOff.Load(), statuses.Load(), others.Load())
	if exitErr != nil {
		t.Fatalf("serve exited non-zero after SIGTERM: %v", exitErr)
	}
	if took > drain {
		t.Fatalf("drain took %v, over the %v budget", took, drain)
	}
	if n := cutOff.Load(); n != 0 {
		t.Fatalf("%d responses were cut off after their headers arrived", n)
	}
	if okBefore.Load() == 0 {
		t.Fatal("no request succeeded before SIGTERM; the load never reached the server")
	}
	if refusedAfter.Load() == 0 {
		t.Fatal("no dial was refused after SIGTERM; the listener never closed")
	}
}

// waitReady polls /v1/models until the server answers, giving up early
// if the process exits.
func waitReady(target string, exited <-chan struct{}, within time.Duration) error {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("serve exited before answering on %s", target)
		default:
		}
		resp, err := http.Get(target + "/v1/models")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready within %v", target, within)
}

// synthBundle trains a small ensemble over a 40-point synthetic space,
// quick enough to put a real model behind a test server.
func synthBundle(t *testing.T) *bundle.Bundle {
	t.Helper()
	sp := space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
	enc := encoding.NewEncoder(sp)
	train := sp.Sample(stats.NewRNG(23), 36)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		c := sp.Choices(idx)
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{0.4 + 0.3*math.Log2(sp.Value(c, 0)) + 0.1*sp.Value(c, 1)}
	}
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 50
	cfg.Train.Patience = 12
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(sp, ens, bundle.Meta{Study: "synth", App: "drain", Metric: "IPC", Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
