package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Unit is one type-checked compilation the analyzers run over: a
// module package together with its in-package test files, an external
// (_test) test package, or a bare directory of Go files (testdata).
type Unit struct {
	// Path is the unit's import path; bare directories use their
	// package name.
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// extraStdlib is always appended to the `go list -export` invocation
// so export data exists for stdlib packages the analyzers' testdata
// fixtures import even when the module itself does not (math/rand is
// the canonical example: the whole point of the determinism analyzer
// is that the module never imports it).
var extraStdlib = []string{
	"math/rand", "math/rand/v2", "crypto/rand",
	"sync", "sync/atomic", "encoding/json", "encoding/csv",
	"sort", "slices", "strings", "fmt", "errors", "time", "io", "os",
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
	ForTest      string
	Error        *struct{ Err string }
}

// Loader loads and type-checks packages for analysis. It shells out to
// `go list -export -deps -test` once, then resolves every import
// through the toolchain's compiled export data — the stdlib-only
// equivalent of go/packages. One Loader owns one *token.FileSet and
// one importer, so types resolved by different units are identical
// objects and may be compared directly.
type Loader struct {
	// Dir is the module root the go tool runs in.
	Dir string

	fset  *token.FileSet
	meta  map[string]*listPkg
	roots []string
	res   *resolver
	// rebuilt lists, per package under test, the module packages its
	// external test imports that go test compiles again against the
	// package's test files, in dependency order.
	rebuilt map[string][]*listPkg
}

// NewLoader lists patterns (plus their dependencies and test files)
// below the module rooted at dir and prepares the import resolver.
// With no patterns it defaults to ./... so every module package is
// importable by later LoadDir calls.
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps", "-test", "-json"}, patterns...)
	args = append(args, extraStdlib...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	l := &Loader{Dir: dir, fset: token.NewFileSet(), meta: map[string]*listPkg{}, rebuilt: map[string][]*listPkg{}}
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		// Skip the synthesized test entries: the plain entry already
		// carries TestGoFiles/XTestGoFiles, and analyzing the package
		// once with its test files folded in covers both. Keep the
		// packages rebuilt for an external test, which LoadRoots may
		// have to type-check the same way.
		if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			base, _, _ := strings.Cut(p.ImportPath, " ")
			if p.ForTest != "" && base != p.ForTest && base != p.ForTest+"_test" {
				l.rebuilt[p.ForTest] = append(l.rebuilt[p.ForTest], p)
			}
			continue
		}
		l.meta[p.ImportPath] = p
		if !p.DepOnly && !p.Standard {
			l.roots = append(l.roots, p.ImportPath)
		}
	}
	sort.Strings(l.roots)
	l.res = newResolver(l.fset, l.meta)
	return l, nil
}

// resolver resolves import paths, preferring in-memory packages (units
// this loader already type-checked from source) and falling back to
// the gc compiler's export data.
type resolver struct {
	mem map[string]*types.Package
	gc  types.Importer
}

func newResolver(fset *token.FileSet, meta map[string]*listPkg) *resolver {
	lookup := func(path string) (io.ReadCloser, error) {
		p := meta[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q (not a dependency of the module; repolint's stdlib-only loader can only resolve module dependencies)", path)
		}
		return os.Open(p.Export)
	}
	return &resolver{
		mem: map[string]*types.Package{},
		gc:  importer.ForCompiler(fset, "gc", lookup),
	}
}

func (r *resolver) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := r.mem[path]; ok {
		return p, nil
	}
	return r.gc.Import(path)
}

// check parses and type-checks one file list as a package.
func (l *Loader) check(path, name, dir string, files []string) (*Unit, error) {
	if len(files) == 0 {
		return nil, nil
	}
	u := &Unit{Path: path, Name: name, Fset: l.fset}
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, filepath.Join(dir, f), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		u.Files = append(u.Files, af)
	}
	u.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.res,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(path, l.fset, u.Files, u.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	u.Pkg = pkg
	return u, nil
}

// LoadRoots type-checks every pattern-matched module package — with
// its in-package test files folded in, plus a separate unit per
// external test package — and returns the units in import-path order.
func (l *Loader) LoadRoots() ([]*Unit, error) {
	var units []*Unit
	for _, path := range l.roots {
		p := l.meta[path]
		u, err := l.check(p.ImportPath, p.Name, p.Dir, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		if u != nil {
			units = append(units, u)
		}
		if len(p.XTestGoFiles) > 0 {
			// Resolve the under-test import through export data first,
			// so its identity matches references from the xtest's
			// other imports. Only when that fails — the xtest uses
			// symbols declared in _test.go files — fall back to the
			// source-checked unit, which has them.
			xu, err := l.check(p.ImportPath+"_test", p.Name+"_test", p.Dir, p.XTestGoFiles)
			if err != nil && u != nil {
				xu, err = l.checkXTest(p, u)
			}
			if err != nil {
				return nil, err
			}
			if xu != nil {
				units = append(units, xu)
			}
		}
	}
	return units, nil
}

// checkXTest type-checks p's external test package against u, p with
// its _test.go files, as go test builds it: every module package the
// xtest reaches p through is checked again from source against u, so
// all of them see one p.
func (l *Loader) checkXTest(p *listPkg, u *Unit) (*Unit, error) {
	l.res.mem[p.ImportPath] = u.Pkg
	defer delete(l.res.mem, p.ImportPath)
	for _, r := range l.rebuilt[p.ImportPath] {
		path, _, _ := strings.Cut(r.ImportPath, " ")
		ru, err := l.check(path, r.Name, r.Dir, r.GoFiles)
		if err != nil {
			return nil, err
		}
		l.res.mem[path] = ru.Pkg
		defer delete(l.res.mem, path)
	}
	return l.check(p.ImportPath+"_test", p.Name+"_test", p.Dir, p.XTestGoFiles)
}

// LoadDir parses every .go file directly inside dir as one package and
// type-checks it against the module's dependency universe. The result
// is registered under its package name so .go files in later LoadDir
// calls can import it (the analysistest cross-package case). dir is
// relative to the loader's module root unless absolute.
func (l *Loader) LoadDir(dir string) (*Unit, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.Dir, dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	// The package clause names the unit; testdata fixture packages are
	// imported by that bare name.
	first, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, files[0]), nil, parser.PackageClauseOnly)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	name := first.Name.Name
	u, err := l.check(name, name, dir, files)
	if err != nil {
		return nil, err
	}
	l.res.mem[name] = u.Pkg
	return u, nil
}
