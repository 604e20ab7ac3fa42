package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RNGShare flags a *stats.RNG shared with a goroutine — captured by a
// `go` or par.For closure, or passed as a `go` call argument — without
// an intervening Split(). stats.RNG is documented single-goroutine; a
// shared stream is both a data race and a determinism bug (draw order
// depends on scheduling). The sanctioned pattern derives a child
// generator per goroutine:
//
//	child := rng.Split()
//	go func() { ... child.Float64() ... }()
var RNGShare = &Analyzer{
	Name: "rngshare",
	Doc: "flag *stats.RNG values captured by `go` or par.For closures or passed to goroutines " +
		"without an intervening .Split(); the RNG is single-goroutine by contract.",
	Run: runRNGShare,
}

func runRNGShare(pass *Pass) error {
	fromSplit := splitDerivedVars(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// RNG-typed arguments of the spawned call: fine when the
				// expression is itself a .Split() call or a Split-derived
				// variable.
				for _, arg := range n.Call.Args {
					if !isRNGPtr(pass.TypesInfo.TypeOf(arg)) {
						continue
					}
					if isSplitCall(ast.Unparen(arg)) {
						continue
					}
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok && fromSplit[pass.TypesInfo.Uses[id]] {
						continue
					}
					pass.Reportf(arg.Pos(), "*stats.RNG passed to a goroutine without an intervening .Split(); the RNG is single-goroutine — derive a child stream with Split()")
				}
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					reportCapturedRNG(pass, lit, "`go`", fromSplit)
				}
			case *ast.CallExpr:
				// A closure passed to repro/internal/par runs on its
				// goroutines (the path-suffix match, as in isRNGPtr).
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/par") {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						reportCapturedRNG(pass, lit, "par."+fn.Name(), fromSplit)
					}
				}
			}
			return true
		})
	}
	return nil
}

// reportCapturedRNG reports the free, not Split-derived *stats.RNG
// variables of lit, the goroutine body of what.
func reportCapturedRNG(pass *Pass, lit *ast.FuncLit, what string, fromSplit map[types.Object]bool) {
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !isRNGPtr(obj.Type()) || reported[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the closure
		}
		if fromSplit[obj] {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(), "*stats.RNG %q captured by a %s closure without an intervening .Split(); the RNG is single-goroutine — derive a child stream with Split()", obj.Name(), what)
		return true
	})
}

// splitDerivedVars collects variables whose defining assignment draws
// from .Split(), i.e. per-goroutine child generators.
func splitDerivedVars(pass *Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		if !isSplitCall(ast.Unparen(rhs)) {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, id := range n.Names {
					record(id, n.Values[i])
				}
			}
			return true
		})
	}
	return out
}

func isSplitCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Split"
}

// isRNGPtr reports whether t is *stats.RNG (the repo's generator; the
// path-suffix match keeps the analyzer working under module renames).
func isRNGPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/stats")
}
