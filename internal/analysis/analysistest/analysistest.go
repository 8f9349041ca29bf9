// Package analysistest loads Go source trees and runs the heterolint
// analyzers over them: the whole module (LoadModule and Program.Lint, which
// TestHeterolint in internal/analysis runs) and GOPATH-style fixture
// packages under a testdata directory, whose diagnostics Run checks against
// // want expectations, after golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line carries its expectation in a trailing comment:
//
//	fmt.Println(k) // want `map iteration order leaks`
//
// Each backquoted or double-quoted token after "want" is a regular
// expression that must match exactly one diagnostic reported on that line;
// diagnostics without a matching expectation (and expectations without a
// matching diagnostic) fail the test.
//
// Both kinds of tree load the same way: a package is parsed with its
// comments and type-checked from source after the packages it imports,
// with the standard library from go/importer's source importer. Lint runs
// the analyzers over the packages in that order with one fact store, so the
// facts an analyzer exports about a package reach its runs over every
// importer.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"heterohpc/internal/analysis"
	"heterohpc/internal/analysis/maporder"
	"heterohpc/internal/analysis/obskind"
	"heterohpc/internal/analysis/vcharge"
)

// Heterolint is the repository's suite of invariant checkers, the one
// TestHeterolint lints the module with.
var Heterolint = []*analysis.Analyzer{maporder.Analyzer, vcharge.Analyzer, obskind.Analyzer}

// Program is the loaded packages of one source tree.
type Program struct {
	Fset *token.FileSet
	// Dir is the tree's root directory, absolute.
	Dir string
	// Path is the import path of Dir: the module path, or "" for a
	// GOPATH-style src directory.
	Path string
	// Packages holds every loaded package after the packages it imports.
	Packages []*Package

	byPath map[string]*Package // nil while the package is being loaded
	std    types.Importer
}

// Package is one loaded package.
type Package struct {
	Path string
	// Files are the non-test files, type-checked into Types and Info.
	Files []*ast.File
	// TestFiles are the _test.go files, in-package and external, parsed but
	// not type-checked; Lint hands them to the analyzers after Files (see
	// analysis.Pass.Files).
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

func newProgram(dir, path string) (*Program, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Program{Fset: fset, Dir: dir, Path: path, byPath: map[string]*Package{},
		std: importer.ForCompiler(fset, "source", nil)}, nil
}

// LoadModule loads every package of the Go module rooted at dir, skipping
// testdata and hidden directories.
func LoadModule(dir string) (*Program, error) {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	var path string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			path = f[1]
		}
	}
	p, err := newProgram(dir, path)
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(p.Dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != p.Dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(p.Dir, dir)
		if err != nil {
			return err
		}
		path := p.Path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := p.load(path); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	return p, err
}

// dir gives the directory of a package of the tree, and false for an
// import path from outside it.
func (p *Program) dir(path string) (string, bool) {
	if p.Path == "" {
		dir := filepath.Join(p.Dir, filepath.FromSlash(path))
		st, err := os.Stat(dir)
		return dir, err == nil && st.IsDir()
	}
	if path == p.Path {
		return p.Dir, true
	}
	rel, ok := strings.CutPrefix(path, p.Path+"/")
	return filepath.Join(p.Dir, filepath.FromSlash(rel)), ok
}

// load parses and type-checks a package of the tree, once.
func (p *Program) load(path string) (*Package, error) {
	if pkg, ok := p.byPath[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	dir, _ := p.dir(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p.byPath[path] = nil
	pkg := &Package{Path: path, Info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}}
	if pkg.Files, err = p.parse(dir, bp.GoFiles); err != nil {
		return nil, err
	}
	if pkg.TestFiles, err = p.parse(dir, append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
		return nil, err
	}
	if pkg.Types, err = (&types.Config{Importer: p}).Check(path, p.Fset, pkg.Files, pkg.Info); err != nil {
		return nil, err
	}
	p.byPath[path] = pkg
	p.Packages = append(p.Packages, pkg)
	return pkg, nil
}

func (p *Program) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import resolves an import met while type-checking: a package of the tree
// is loaded here, so each of its objects is one object across the program;
// the rest is the standard library.
func (p *Program) Import(path string) (*types.Package, error) {
	if _, ok := p.dir(path); !ok {
		return p.std.Import(path)
	}
	pkg, err := p.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// A Finding is one diagnostic of a Lint run.
type Finding struct {
	Package  *Package
	Analyzer *analysis.Analyzer
	analysis.Diagnostic
}

// Lint validates the analyzers as one suite (analysis.Validate), then runs
// each over every package, in the order of Packages, with one fact store.
// Findings come in package order, then analyzer order, then position order.
func (p *Program) Lint(analyzers ...*analysis.Analyzer) ([]Finding, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	facts := analysis.NewFactStore(analyzers...)
	var out []Finding
	for _, pkg := range p.Packages {
		files := append(pkg.Files[:len(pkg.Files):len(pkg.Files)], pkg.TestFiles...)
		for _, a := range analyzers {
			diags, err := analysis.RunAnalyzer(a, p.Fset, files, pkg.Types, pkg.Info, facts)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				out = append(out, Finding{pkg, a, d})
			}
		}
	}
	return out, nil
}

// Run loads each fixture package (an import path under testdata/src) with
// the fixtures it imports, lints them all with the analyzer, and reports
// through t each expectation mismatch in the named packages.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	p, err := newProgram(filepath.Join(testdata, "src"), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgPaths {
		if _, err := p.load(path); err != nil {
			t.Fatalf("%s: %s: %v", a.Name, path, err)
		}
	}
	findings, err := p.Lint(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgPaths {
		var diags []analysis.Diagnostic
		for _, f := range findings {
			if f.Package.Path == path {
				diags = append(diags, f.Diagnostic)
			}
		}
		checkExpectations(t, a, p.Fset, p.byPath[path].Files, diags, path)
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

// wantRx extracts the expectation tokens from a "// want …" comment tail.
var wantRx = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func checkExpectations(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic, pkgPath string) {
	t.Helper()
	wants := map[lineKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want")
				if idx < 0 {
					// A comment group's opening comment may itself be the
					// marker ("// want …" on its own line refers to itself).
					continue
				}
				tail := c.Text[idx+len("// want"):]
				posn := fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(tail, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: %s: bad want pattern %q: %v", a.Name, posn, pat, err)
					}
					k := lineKey{posn.Filename, posn.Line}
					wants[k] = append(wants[k], &want{rx: rx})
				}
			}
		}
	}

	var surplus []string
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		k := lineKey{posn.Filename, posn.Line}
		found := false
		for _, w := range wants[k] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			surplus = append(surplus, fmt.Sprintf("%s: unexpected diagnostic: %s", posn, d.Message))
		}
	}
	var missing []string
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, w.rx))
			}
		}
	}
	sort.Strings(surplus)
	sort.Strings(missing)
	for _, s := range surplus {
		t.Errorf("%s [%s]: %s", pkgPath, a.Name, s)
	}
	for _, s := range missing {
		t.Errorf("%s [%s]: %s", pkgPath, a.Name, s)
	}
}
