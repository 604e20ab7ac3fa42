package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicMix flags struct fields accessed through sync/atomic functions
// in one place and by plain load/store in another. A field is either
// always atomic or never atomic; mixing the two is a data race the
// race detector only catches when both sides happen to run. (Fields of
// the typed atomic.Int64 family cannot be mixed and are the preferred
// fix — the serve tier's request counters pattern.)
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flag fields passed to sync/atomic functions in one place but accessed by " +
		"plain load/store in another; use typed atomics (atomic.Int64) or be " +
		"consistently atomic.",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	// atomicSites[field] = first atomic access; atomicNodes marks the
	// selector nodes inside atomic calls so the plain-access walk can
	// skip them.
	atomicSites := map[types.Object]ast.Node{}
	atomicNodes := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // typed atomics (atomic.Int64 methods) cannot be mixed
			}
			if len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if obj := selectedField(pass, sel); obj != nil {
				if _, seen := atomicSites[obj]; !seen {
					atomicSites[obj] = sel
				}
				atomicNodes[sel] = true
			}
			return true
		})
	}
	if len(atomicSites) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicNodes[sel] {
				return true
			}
			obj := selectedField(pass, sel)
			if obj == nil {
				return true
			}
			site, mixed := atomicSites[obj]
			if !mixed {
				return true
			}
			pass.Reportf(sel.Pos(), "field %q is accessed with sync/atomic at %s but by plain load/store here; mixing the two is a data race — use atomic.%s or a consistent discipline", obj.Name(), fmtPos(pass, site), typedAtomicFor(obj.Type()))
			return true
		})
	}
	return nil
}

// selectedField resolves sel to the struct field it selects, or nil.
func selectedField(pass *Pass, sel *ast.SelectorExpr) types.Object {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// typedAtomicFor names the sync/atomic typed counterpart for the
// field's type, for the fix suggestion.
func typedAtomicFor(t types.Type) string {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return "Value"
	}
	switch b.Kind() {
	case types.Int32:
		return "Int32"
	case types.Int64, types.Int:
		return "Int64"
	case types.Uint32:
		return "Uint32"
	case types.Uint64, types.Uint:
		return "Uint64"
	case types.Uintptr:
		return "Uintptr"
	case types.Bool:
		return "Bool"
	default:
		return "Value"
	}
}
