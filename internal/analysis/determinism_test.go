package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestDeterminism covers the in-scope fixture (wall clocks, RNG
// imports, trailing/above/malformed/wrong-name directives), the
// per-file scoping used for serve's hardening layer, and a fully
// out-of-scope package.
func TestDeterminism(t *testing.T) {
	a := analysis.NewDeterminism(map[string][]string{
		"determinism":       nil,
		"determinismscoped": {"schedule.go"},
	})
	analysistest.Run(t, a,
		"testdata/src/determinism",
		"testdata/src/determinismscoped",
		"testdata/src/determinismout",
	)
}

// TestDeterminismDefaultScope pins the production scope: the packages
// every result document is computed from, simulation results and saved
// bundles included, whole-package — and nothing that is legitimately
// wall-measured.
func TestDeterminismDefaultScope(t *testing.T) {
	for _, pkg := range []string{
		"repro/internal/core", "repro/internal/sweep", "repro/internal/space",
		"repro/internal/encoding", "repro/internal/stats", "repro/internal/explore",
		"repro/internal/ann", "repro/internal/sim", "repro/internal/workload",
		"repro/internal/simpoint", "repro/internal/bundle", "repro/internal/studies",
		"repro/internal/cacti", "repro/internal/pb", "repro/internal/par",
		"repro/internal/experiments",
	} {
		files, ok := analysis.DeterminismScope[pkg]
		if !ok {
			t.Errorf("DeterminismScope lost %s", pkg)
		}
		if len(files) != 0 {
			t.Errorf("%s must be in scope whole-package, not only %v", pkg, files)
		}
	}
	// serve is a wall-measured service layer, so it must never be in
	// scope whole-package — but its hardening files are: the cache key
	// is pure and the limiter/metrics wall reads funnel through one
	// annotated site.
	files, ok := analysis.DeterminismScope["repro/internal/serve"]
	if !ok || len(files) == 0 {
		t.Error("serve's hardening layer (cache/limiter/metrics) must be file-scoped into the determinism scope, never the whole package")
	}
	for _, f := range []string{"cache.go", "limiter.go", "metrics.go"} {
		found := false
		for _, have := range files {
			if have == f {
				found = true
			}
		}
		if !found {
			t.Errorf("DeterminismScope lost serve's %s", f)
		}
	}
}
