package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests: every alternative of every -run pattern in
// the CI workflow matches a Test, Benchmark or Fuzz function of a package the
// same line tests, so a renamed or deleted test cannot leave a CI step that
// runs nothing and still passes. The fuzz and benchmark steps' -run '^$'
// (run no test) is the one exception.
func TestCIRunPatternsMatchTests(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := testFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run[ =]('[^']*'|"[^"]*"|\S+)`)
	patterns := 0
	for i, line := range strings.Split(string(ci), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		patterns++
		pattern := strings.Trim(m[1], `'"`)
		if pattern == "^$" {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, strings.TrimPrefix(f, "./"))
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
				continue
			}
			if !matchesIn(re, names, pkgs) {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in %s", i+1, alt, strings.Join(pkgs, " "))
			}
		}
	}
	if patterns == 0 {
		t.Fatal("ci.yml has no -run pattern: the workflow moved or this test's parser is stale")
	}
}

// matchesIn reports whether re matches a test function of one of the
// packages pkgs names: a directory, or a tree ending in "/...".
func matchesIn(re *regexp.Regexp, names map[string][]string, pkgs []string) bool {
	for dir, fns := range names {
		for _, p := range pkgs {
			tree, all := strings.CutSuffix(p, "...")
			tree = strings.TrimSuffix(tree, "/")
			if dir != p && !(all && (tree == "" || dir == tree || strings.HasPrefix(dir, tree+"/"))) {
				continue
			}
			for _, fn := range fns {
				if re.MatchString(fn) {
					return true
				}
			}
		}
	}
	return false
}

// testFuncs maps every package directory under root (slash-separated and
// relative, "." for root; testdata and hidden directories skipped) to its
// Test, Benchmark and Fuzz functions.
func testFuncs(root string) (map[string][]string, error) {
	names := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names[dir] = append(names[dir], fn.Name.Name)
				}
			}
		}
		return nil
	})
	return names, err
}
