package analysistest

import (
	"fmt"
	"go/ast"
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterohpc/internal/analysis"
)

// writeTree lays files (slash-separated paths relative to the root) out in
// a temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func loadTree(t *testing.T, files map[string]string) *Program {
	t.Helper()
	prog, err := LoadModule(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// render gives each finding as "pkg analyzer file:line: message".
func render(prog *Program, findings []Finding) string {
	var out []string
	for _, f := range findings {
		posn := prog.Fset.Position(f.Pos)
		out = append(out, fmt.Sprintf("%s %s %s:%d: %s", f.Package.Path, f.Analyzer.Name, filepath.Base(posn.Filename), posn.Line, f.Message))
	}
	return strings.Join(out, "\n")
}

// TestLoadModuleOrdersAndSkips: a package comes after the packages it
// imports, and testdata, hidden and underscore directories are not loaded
// (each holds code that would not type-check), nor is one without Go files.
func TestLoadModuleOrdersAndSkips(t *testing.T) {
	prog := loadTree(t, map[string]string{
		"go.mod":               "module example\n",
		"root.go":              "package root\n\nimport \"example/sub\"\n\nvar V = sub.V\n",
		"sub/sub.go":           "package sub\n\nvar V = 1\n",
		"docs/README":          "not Go\n",
		"testdata/src/p/p.go":  "package p\n\nvar V int = \"broken\"\n",
		".hidden/h.go":         "package h\n\nvar V int = \"broken\"\n",
		"_skip/s.go":           "package s\n\nvar V int = \"broken\"\n",
		"sub/sub_test.go":      "package sub\n\nvar unchecked int = \"test files are parsed only\"\n",
		"sub/sub_x_test.go":    "package sub_test\n",
		"docs/sub/more/doc.go": "// Package more is documentation only.\npackage more\n",
	})
	var got []string
	for _, pkg := range prog.Packages {
		got = append(got, fmt.Sprintf("%s(%d+%d)", pkg.Path, len(pkg.Files), len(pkg.TestFiles)))
	}
	if want := "example/sub(1+2) example(1+0) example/docs/sub/more(1+0)"; strings.Join(got, " ") != want {
		t.Fatalf("Packages = %s, want %s", strings.Join(got, " "), want)
	}
	if prog.Path != "example" || !filepath.IsAbs(prog.Dir) {
		t.Fatalf("Path %q Dir %q, want the module path and an absolute root", prog.Path, prog.Dir)
	}
}

// TestLoadModuleErrors: an import cycle and a type error each fail the load
// with the package named, rather than hang or pass.
func TestLoadModuleErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		files map[string]string
		want  string
	}{
		"cycle": {map[string]string{
			"a/a.go": "package a\n\nimport \"example/b\"\n\nvar V = b.V\n",
			"b/b.go": "package b\n\nimport \"example/a\"\n\nvar V = a.V\n",
		}, "import cycle through example/a"},
		"type error": {map[string]string{
			"a/a.go": "package a\n\nvar V int = \"one\"\n",
		}, "a.go:3:13"},
	} {
		tc.files["go.mod"] = "module example\n"
		if _, err := LoadModule(writeTree(t, tc.files)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadModule = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

type markFact struct{ N int }

func (*markFact) AFact() {}

// mark exports a fact for a package-level func named Marked and reports
// each use of a func that carries one.
var mark = &analysis.Analyzer{Name: "mark", FactTypes: []analysis.Fact{(*markFact)(nil)}, Run: func(pass *analysis.Pass) (interface{}, error) {
	if obj := pass.Pkg.Scope().Lookup("Marked"); obj != nil {
		pass.ExportObjectFact(obj, &markFact{N: 1})
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.ImportObjectFact(pass.TypesInfo.Uses[id], new(markFact)) {
				pass.Reportf(id.Pos(), "use of marked %s", id.Name)
			}
			return true
		})
	}
	return nil, nil
}}

// decls reports each top-level declaration of a package's non-test files,
// last first, so Lint's ordering is what puts them in position order.
var decls = &analysis.Analyzer{Name: "decls", Run: func(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for i := len(f.Decls) - 1; i >= 0; i-- {
			pass.Reportf(f.Decls[i].Pos(), "decl %d", i)
		}
	}
	return nil, nil
}}

// TestLintCarriesFactsAcrossPackages: the fact mark exports over a
// dependency reaches its run over the importer, in the same Lint, whichever
// package the walk meets first.
func TestLintCarriesFactsAcrossPackages(t *testing.T) {
	prog := loadTree(t, map[string]string{
		"go.mod":  "module example\n",
		"a/a.go":  "package a\n\nimport \"example/z\"\n\nfunc use() { z.Marked(); z.Other() }\n",
		"z/z.go":  "package z\n\nfunc Marked() {}\n\nfunc Other() {}\n",
		"z/zz.go": "package z\n\nfunc local() { Marked() }\n",
	})
	findings, err := prog.Lint(mark)
	if err != nil {
		t.Fatal(err)
	}
	want := "example/z mark zz.go:3: use of marked Marked\nexample/a mark a.go:5: use of marked Marked"
	if got := render(prog, findings); got != want {
		t.Fatalf("findings:\n%s\nwant:\n%s", got, want)
	}
}

// TestLintFindingOrder: findings come in package order, then analyzer
// order, then position order, and Lint validates the suite first.
func TestLintFindingOrder(t *testing.T) {
	prog := loadTree(t, map[string]string{
		"go.mod":  "module example\n",
		"root.go": "package root\n\nimport \"example/z\"\n\nvar V = 1\n\nfunc F() { z.Marked() }\n",
		"z/z.go":  "package z\n\nfunc Marked() {}\n",
	})
	findings, err := prog.Lint(decls, mark)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"example/z decls z.go:3: decl 0",
		"example decls root.go:3: decl 0",
		"example decls root.go:5: decl 1",
		"example decls root.go:7: decl 2",
		"example mark root.go:7: use of marked Marked",
	}, "\n")
	if got := render(prog, findings); got != want {
		t.Fatalf("findings:\n%s\nwant:\n%s", got, want)
	}
	if _, err := prog.Lint(decls, decls); err == nil || !strings.Contains(err.Error(), `duplicate analyzer name "decls"`) {
		t.Fatalf("Lint with one analyzer twice = %v, want it refused", err)
	}
}

// TestRunLeavesProcessEnvironment: a fixture test matches its expectations
// without touching GOPATH, GO111MODULE or go/build's default context.
func TestRunLeavesProcessEnvironment(t *testing.T) {
	testdata := writeTree(t, map[string]string{
		"src/p/p.go": "package p\n\nimport \"q\" // want `decl 0`\n\nvar V = q.V // want `decl 1`\n",
		"src/q/q.go": "package q\n\nvar V = 1 // want `decl 0`\n",
	})
	before := []string{os.Getenv("GOPATH"), os.Getenv("GO111MODULE"), build.Default.GOPATH}
	Run(t, testdata, decls, "p", "q")
	if after := []string{os.Getenv("GOPATH"), os.Getenv("GO111MODULE"), build.Default.GOPATH}; strings.Join(after, "|") != strings.Join(before, "|") {
		t.Fatalf("GOPATH, GO111MODULE, build.Default.GOPATH = %q after Run, %q before", after, before)
	}
}
