package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
	"unicode"
)

// ErrField enforces the repo's validation-error convention: a
// config/spec Validate method returns errors that name the offending
// field ("sweep: Config.ChunkSize %d is not positive"), so a misconfiguration
// points at the knob to fix rather than making the operator bisect the
// spec. Every package since PR 4 follows this by hand; the analyzer
// makes it structural.
var ErrField = &Analyzer{
	Name: "errfield",
	Doc: "Validate methods must return errors that name the offending field (or the " +
		"receiver type); flags errors.New/fmt.Errorf messages in Validate that mention " +
		"neither.",
	Run: runErrField,
}

func runErrField(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "Validate" || fn.Recv == nil || fn.Body == nil {
				continue
			}
			names := receiverNames(pass, fn)
			if names == nil {
				continue
			}
			errPos, ok := errorResultIndex(pass, fn)
			if !ok {
				continue
			}
			inspectShallow(fn.Body, func(n ast.Node) {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || errPos >= len(ret.Results) {
					return
				}
				call, ok := ast.Unparen(ret.Results[errPos]).(*ast.CallExpr)
				if !ok {
					return
				}
				lit, ok := errorMessageLit(pass, call)
				if !ok {
					return
				}
				msg, err := strconv.Unquote(lit.Value)
				if err != nil {
					return
				}
				if !mentionsAny(msg, names) {
					pass.Reportf(lit.Pos(), "Validate error %q names neither a field of %s nor the type itself; validation errors must name the offending field", msg, names[0])
				}
			})
		}
	}
	return nil
}

// receiverNames returns the receiver type name followed by its struct
// field names (including promoted embedded type names), or nil when
// the receiver is not a struct or has no fields.
func receiverNames(pass *Pass, fn *ast.FuncDecl) []string {
	if len(fn.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return nil
	}
	names := []string{named.Obj().Name()}
	for i := 0; i < st.NumFields(); i++ {
		names = append(names, st.Field(i).Name())
	}
	return names
}

// errorResultIndex locates the error in Validate's results (it must be
// the last one, per convention).
func errorResultIndex(pass *Pass, fn *ast.FuncDecl) (int, bool) {
	sig, ok := pass.TypesInfo.Defs[fn.Name].Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return 0, false
	}
	last := sig.Results().Len() - 1
	if !types.Identical(sig.Results().At(last).Type(), types.Universe.Lookup("error").Type()) {
		return 0, false
	}
	return last, true
}

// errorMessageLit returns the message literal of an errors.New or
// fmt.Errorf call. Other error constructions (wrapping a sub-error,
// returning a sentinel) are out of the heuristic's reach and skipped.
func errorMessageLit(pass *Pass, call *ast.CallExpr) (*ast.BasicLit, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil, false
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
	default:
		return nil, false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return nil, false
	}
	return lit, true
}

// mentionsAny reports whether msg names one of names, either verbatim
// ("Config.ChunkSize") or as prose tokens ("chunk size" for ChunkSize): a
// name matches when its lowercase form equals one message token or the
// concatenation of up to three adjacent tokens.
func mentionsAny(msg string, names []string) bool {
	tokens := strings.FieldsFunc(strings.ToLower(msg), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	for _, name := range names {
		if strings.Contains(msg, name) {
			return true
		}
		lower := strings.ToLower(name)
		for i := range tokens {
			joined := ""
			for j := i; j < len(tokens) && j < i+3; j++ {
				joined += tokens[j]
				if joined == lower {
					return true
				}
				if len(joined) > len(lower) {
					break
				}
			}
		}
	}
	return false
}
