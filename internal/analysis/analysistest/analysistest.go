// Package analysistest runs an analyzer over GOPATH-style fixture packages
// under a testdata directory and checks its diagnostics against // want
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line carries its expectation in a trailing comment:
//
//	fmt.Println(k) // want `map iteration order leaks`
//
// Each backquoted or double-quoted token after "want" is a regular
// expression that must match exactly one diagnostic reported on that line;
// diagnostics without a matching expectation (and expectations without a
// matching diagnostic) fail the test. Fixture packages are type-checked
// from source with GOPATH pointed at testdata, so fixtures may import both
// sibling fixture packages and the standard library.
//
// Sibling fixture imports resolve through a shared loader that analyzes
// the dependency first, so facts exported by the analyzer's run over the
// imported package are visible when the importing package is analyzed —
// the in-process mirror of the unitchecker's .vetx fact flow. Naming both
// packages in one Run checks diagnostics in both directions.
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
)

// Run applies the analyzer to each fixture package (an import path under
// testdata/src) and reports expectation mismatches through t. Dependencies
// between fixture packages are analyzed in import order with a fact store
// shared across the whole run.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld, restore := newLoader(t, testdata, a)
	defer restore()
	for _, pkgPath := range pkgPaths {
		lp := ld.load(pkgPath)
		checkExpectations(t, a, ld.fset, lp.files, lp.diags, pkgPath)
	}
}

// loader type-checks fixture packages with one shared FileSet, importer and
// fact store, analyzing each package exactly once in dependency order.
type loader struct {
	t        *testing.T
	testdata string
	fset     *token.FileSet
	analyzer *analysis.Analyzer
	std      types.Importer
	facts    *analysis.FactStore
	pkgs     map[string]*loadedPkg
	loading  map[string]bool // cycle detection
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	diags []analysis.Diagnostic
}

// newLoader builds a loader and points go/build's default context (and the
// process environment the source importer consults) at the fixture tree;
// the returned restore func undoes both.
func newLoader(t *testing.T, testdata string, a *analysis.Analyzer) (*loader, func()) {
	t.Helper()
	abs, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatal(err)
	}
	oldGOPATH := build.Default.GOPATH
	build.Default.GOPATH = abs
	var undo []func()
	undo = append(undo, func() { build.Default.GOPATH = oldGOPATH })
	// Fixture imports resolve GOPATH-style; without this, go/build defers
	// to the module-aware `go list`, which cannot see testdata/src.
	for k, v := range map[string]string{"GOPATH": abs, "GO111MODULE": "off"} {
		old, had := os.LookupEnv(k)
		os.Setenv(k, v)
		k, old, had := k, old, had
		undo = append(undo, func() {
			if had {
				os.Setenv(k, old)
			} else {
				os.Unsetenv(k)
			}
		})
	}
	fset := token.NewFileSet()
	ld := &loader{
		t:        t,
		testdata: abs,
		fset:     fset,
		analyzer: a,
		std:      importer.ForCompiler(fset, "source", nil),
		facts:    analysis.NewFactStore(a),
		pkgs:     map[string]*loadedPkg{},
		loading:  map[string]bool{},
	}
	return ld, func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
}

// Import resolves an import encountered while type-checking a fixture:
// sibling fixture packages load (and get analyzed) through the loader so
// object identity and facts are shared; everything else falls through to
// the standard source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.testdata, "src", filepath.FromSlash(path)); isDir(dir) {
		return ld.load(path).pkg, nil
	}
	return ld.std.Import(path)
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// load parses, type-checks and analyzes one fixture package, memoized.
func (ld *loader) load(pkgPath string) *loadedPkg {
	ld.t.Helper()
	if lp, ok := ld.pkgs[pkgPath]; ok {
		return lp
	}
	if ld.loading[pkgPath] {
		ld.t.Fatalf("%s: fixture import cycle through %q", ld.analyzer.Name, pkgPath)
	}
	ld.loading[pkgPath] = true
	defer delete(ld.loading, pkgPath)

	dir := filepath.Join(ld.testdata, "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		ld.t.Fatalf("%s: %v", ld.analyzer.Name, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			ld.t.Fatalf("%s: %v", ld.analyzer.Name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		ld.t.Fatalf("%s: no fixture files in %s", ld.analyzer.Name, dir)
	}

	tc := &types.Config{Importer: ld}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := tc.Check(pkgPath, ld.fset, files, info)
	if err != nil {
		ld.t.Fatalf("%s: typecheck %s: %v", ld.analyzer.Name, pkgPath, err)
	}
	diags, err := analysis.RunAnalyzer(ld.analyzer, ld.fset, files, pkg, info, ld.facts)
	if err != nil {
		ld.t.Fatalf("%s: %v", ld.analyzer.Name, err)
	}
	lp := &loadedPkg{pkg: pkg, files: files, diags: diags}
	ld.pkgs[pkgPath] = lp
	return lp
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
