package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFiltersNameRealTests guards the workflow against stale test
// names: go test -run with a pattern that matches nothing still
// passes, so a renamed test would silently drop out of its CI step.
// Every -run or -bench alternative in ci.yml that names a Test… or
// Benchmark… must match a function declared in some _test.go file;
// the others (^Fuzz, the deliberate -run xxx) name no test to check.
func TestCIFiltersNameRealTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, m := range regexp.MustCompile(`-(run|bench) (?:'([^']*)'|(\S+))`).FindAllStringSubmatch(string(ci), -1) {
		for _, alt := range strings.Split(m[2]+m[3], "|") {
			if !strings.Contains(alt, "Test") && !strings.Contains(alt, "Benchmark") {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml -%s %q: %v", m[1], alt, err)
				continue
			}
			checked++
			found := false
			for _, f := range funcs {
				if re.MatchString(f) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml -%s %q matches no Test or Benchmark function in any _test.go file", m[1], alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test names in ci.yml's -run/-bench filters")
	}
}
