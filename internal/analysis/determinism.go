package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
)

// DeterminismScope lists the result-affecting packages: everything a
// model output, sweep document, exploration trace, or offered-load
// schedule is computed from. In these packages wall-clock reads and
// platform-dependent RNGs are forbidden outright — the repo's core
// invariant is that results are pure functions of (inputs, seeds), so
// any wall or OS entropy source here is a latent bit-identity bug. An
// empty file list means the whole package; a non-empty list scopes the
// rule to those files (loadsim's schedule layer must be pure, but its
// runner/clock layer exists precisely to measure wall time).
var DeterminismScope = map[string][]string{
	"repro/internal/core":     nil,
	"repro/internal/pareto":   nil,
	"repro/internal/sweep":    nil,
	"repro/internal/space":    nil,
	"repro/internal/encoding": nil,
	"repro/internal/stats":    nil,
	"repro/internal/explore":  nil,
	"repro/internal/ann":      nil,
	"repro/internal/loadsim":  {"pattern.go", "events.go", "schedule.go"},
	// serve's hardening layer: the cache must key purely on
	// (version, index) and the limiter/metrics files funnel
	// every wall read through one annotated nowMono() site.
	"repro/internal/serve": {"cache.go", "limiter.go", "metrics.go"},
}

// forbiddenRandImports are nondeterministic (platform- or
// process-dependent) randomness sources; all randomness must flow
// through stats.RNG so runs reproduce bit-for-bit from their seeds.
var forbiddenRandImports = map[string]string{
	"math/rand":    "math/rand's generator is not stable across Go releases; use stats.RNG",
	"math/rand/v2": "math/rand/v2 is seeded per-process; use stats.RNG",
	"crypto/rand":  "crypto/rand is entropy, not a seedable stream; use stats.RNG",
}

// wallClockFuncs are the time package's wall-clock reads. Monotonic
// pacing helpers (NewTimer, Tick, Sleep) are deliberately not listed:
// they schedule work without yielding a value that can leak into
// results.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Determinism runs the check with the repository's scope; tests build
// narrower instances via NewDeterminism.
var Determinism = NewDeterminism(DeterminismScope)

// NewDeterminism returns the determinism analyzer restricted to the
// given package-path → file-basename scope (nil/empty file list =
// whole package).
func NewDeterminism(scope map[string][]string) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc: "forbid wall-clock reads (time.Now/Since/Until) and nondeterministic RNGs " +
			"(math/rand, crypto/rand) in result-affecting packages; results must be pure " +
			"functions of (inputs, seeds). Genuinely wall-measured telemetry (progress " +
			"logs, latency columns) is annotated `//repolint:allow determinism -- <reason>`.",
	}
	a.Run = func(pass *Pass) error {
		files, ok := scope[pass.Pkg.Path()]
		if !ok {
			return nil
		}
		inScope := func(f *ast.File) bool {
			if len(files) == 0 {
				return true
			}
			base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			for _, want := range files {
				if base == want {
					return true
				}
			}
			return false
		}
		for _, f := range pass.Files {
			if !inScope(f) {
				continue
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if why, bad := forbiddenRandImports[path]; bad {
					pass.Reportf(imp.Pos(), "import of %s in result-affecting package %s: %s", path, pass.Pkg.Path(), why)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(pass, call); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(), "time.%s in result-affecting package %s: wall time must not reach returned data or serialized output", fn.Name(), pass.Pkg.Path())
				}
				return true
			})
		}
		return nil
	}
	return a
}

// calleeFunc resolves a call's callee to its *types.Func, or nil for
// builtins, conversions, and calls through function-typed values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// fmtPos renders a cross-reference position compactly (file:line).
func fmtPos(pass *Pass, n ast.Node) string {
	p := pass.Fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
