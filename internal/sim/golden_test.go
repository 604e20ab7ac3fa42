package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/studies"
	"repro/internal/workload"
)

// goldenSimDigests pins every bit of sim.Result over a fixed sample of
// both studies. The simulator's hot loops may be restructured for
// speed, but a change that moves one of these digests changed the
// model, not just its speed (docs/ARCHITECTURE.md, "Simulator core").
var goldenSimDigests = map[string]string{
	"memory":    "a674e685fcf89a23070015400a183dee576d00dfac34c495bc1efb9dbc79d181",
	"processor": "a0dc2b75f61e9e912cb0c23523621ced6ed3502f615fd3bbd12f6c9784993fd9",
}

// TestGoldenSimDigest simulates 12 sampled points of each study for
// each of the eight applications and hashes the printed results. The
// sample mixes full runs with SimPoint-style windows, warm runs with
// ColdStart, and the default issue window with windows of 1, 2, 5 and
// 16 entries (no study sets IssueWindow, so only this test pins the
// small-window and window-full paths).
func TestGoldenSimDigest(t *testing.T) {
	const (
		points   = 12
		traceLen = 6000
	)
	windows := []int{0, 1, 2, 5, 16}
	for _, st := range studies.All() {
		t.Run(st.Name, func(t *testing.T) {
			h := sha256.New()
			for a, app := range studies.PaperApps() {
				tr := workload.Get(app, traceLen)
				for k := 0; k < points; k++ {
					idx := (k*7919 + a*104729 + 17) % st.Space.Size()
					cfg := st.Config(idx)
					cfg.ColdStart = k%4 == 3
					cfg.IssueWindow = windows[(k+a)%len(windows)]
					var r sim.Result
					var err error
					if k%3 == 2 {
						r, err = sim.RunWindow(cfg, tr, traceLen/3, traceLen/3+traceLen/2)
					} else {
						r, err = sim.Run(cfg, tr)
					}
					if err != nil {
						t.Fatalf("%s point %d: %v", app, idx, err)
					}
					fmt.Fprintf(h, "%+v\n", r)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := goldenSimDigests[st.Name]; got != want {
				t.Fatalf("sim.Result digest %s, want %s", got, want)
			}
		})
	}
}
