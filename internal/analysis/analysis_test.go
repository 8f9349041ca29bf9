package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

type factA struct{ N int }

func (*factA) AFact() {}

type factB struct{ S string }

func (*factB) AFact() {}

// badFact is not a struct pointer when registered by value.
type badFact struct{}

func (badFact) AFact() {}

func mkAnalyzer(name, keyword string, facts ...Fact) *Analyzer {
	return &Analyzer{
		Name:         name,
		AllowKeyword: keyword,
		FactTypes:    facts,
		Run:          func(*Pass) (interface{}, error) { return nil, nil },
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name      string
		analyzers []*Analyzer
		wantErr   string
	}{
		{"ok distinct", []*Analyzer{mkAnalyzer("a", "ka"), mkAnalyzer("b", "kb")}, ""},
		{"ok empty keywords", []*Analyzer{mkAnalyzer("a", ""), mkAnalyzer("b", "")}, ""},
		{"empty name", []*Analyzer{mkAnalyzer("", "k")}, "empty name"},
		{"duplicate name", []*Analyzer{mkAnalyzer("a", "x"), mkAnalyzer("a", "y")}, "duplicate analyzer name"},
		{"no run", []*Analyzer{{Name: "a"}}, "has no Run"},
		{"duplicate keyword", []*Analyzer{mkAnalyzer("a", "shared"), mkAnalyzer("b", "shared")}, `share allow keyword "shared"`},
		{"bad fact type", []*Analyzer{mkAnalyzer("a", "", badFact{})}, "not a struct pointer"},
		{"ok facts", []*Analyzer{mkAnalyzer("a", "", (*factA)(nil), (*factB)(nil))}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.analyzers)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// typecheck compiles one synthetic package for object-key tests.
func typecheck(t *testing.T, src string) *types.Package {
	t.Helper()
	_, _, pkg, _ := typecheckFiles(t, "example/p", src)
	return pkg
}

// typecheckFiles parses src as p.go, comments included, and type-checks it
// as package path.
func typecheckFiles(t *testing.T, path, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := new(types.Config).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}, pkg, info
}

// allowSrc exercises every branch of the allow protocol for keyword "kw".
const allowSrc = `package p

func bad() {}

func f() {
	bad() //heterolint:allow kw same-line reason
	//heterolint:allow kw reason above
	bad()
	bad() //heterolint:allow other not ours
	bad()
	//heterolint:allow kw
	bad()
	//heterolint:allow kw nothing here
	_ = 1
}
`

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("%s:\n%s\nwant:\n%s", what, g, w)
	}
}

func TestCollectAllows(t *testing.T) {
	fset, files, _, _ := typecheckFiles(t, "example/p", allowSrc+"// heterolint:allow spaced x // want \"marker\"\n// not an annotation\n")
	var got []string
	for _, al := range CollectAllows(fset, files) {
		got = append(got, fmt.Sprintf("%s:%d %s|%s", al.File, al.Line, al.Keyword, al.Reason))
	}
	sameLines(t, "CollectAllows", got, []string{"p.go:6 kw|same-line reason", "p.go:7 kw|reason above",
		"p.go:9 other|not ours", "p.go:11 kw|", "p.go:13 kw|nothing here", "p.go:16 spaced|x"})
}

// runBadCalls runs, over allowSrc, an analyzer that reports every call to
// bad last call first, so RunAnalyzer must restore position order.
func runBadCalls(t *testing.T, keyword string) []string {
	t.Helper()
	a := &Analyzer{Name: "badcalls", AllowKeyword: keyword, Run: func(pass *Pass) (interface{}, error) {
		var calls []token.Pos
		ast.Inspect(pass.Files[0], func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && fmt.Sprint(call.Fun) == "bad" {
				calls = append(calls, call.Pos())
			}
			return true
		})
		for i := len(calls) - 1; i >= 0; i-- {
			pass.Reportf(calls[i], "call to bad")
		}
		return nil, nil
	}}
	fset, files, pkg, info := typecheckFiles(t, "example/p", allowSrc)
	diags, err := RunAnalyzer(a, fset, files, pkg, info, NewFactStore(a))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%d: %s", fset.Position(d.Pos).Line, d.Message))
	}
	return out
}

// TestRunAnalyzerAllowProtocol pins suppression on the same line and the
// line above, the isolation of foreign keywords, and the reports for
// unjustified and unused annotations.
func TestRunAnalyzerAllowProtocol(t *testing.T) {
	sameLines(t, "diagnostics", runBadCalls(t, "kw"), []string{"9: call to bad", "10: call to bad",
		"11: //heterolint:allow kw needs a justification after the keyword",
		"13: unused //heterolint:allow kw annotation (nothing to suppress here)"})
}

// TestRunAnalyzerWithoutKeyword: an analyzer with no AllowKeyword cannot be
// suppressed and never reports annotations, but its output is still sorted.
func TestRunAnalyzerWithoutKeyword(t *testing.T) {
	sameLines(t, "diagnostics", runBadCalls(t, ""),
		[]string{"6: call to bad", "8: call to bad", "9: call to bad", "10: call to bad", "12: call to bad"})
}

// TestPassObjectFacts: facts exported for package-level objects and methods
// reach a pass over another package through the shared store, and the
// analyzer bugs ExportObjectFact guards against panic.
func TestPassObjectFacts(t *testing.T) {
	a := mkAnalyzer("alpha", "", (*factA)(nil))
	store := NewFactStore(a)
	dep := typecheck(t, "package p\n\ntype T struct{ F int }\n\nfunc (T) M() {}\n\nfunc Marked() {}\n\nfunc Plain() {}\n")
	_, _, other, _ := typecheckFiles(t, "example/other", "package other\n")
	depPass, otherPass := &Pass{Analyzer: a, Pkg: dep, facts: store}, &Pass{Analyzer: a, Pkg: other, facts: store}
	marked, plain := dep.Scope().Lookup("Marked"), dep.Scope().Lookup("Plain")
	named := dep.Scope().Lookup("T").Type().(*types.Named)
	depPass.ExportObjectFact(marked, &factA{N: 3})
	depPass.ExportObjectFact(named.Method(0), &factA{N: 4})

	var fa, fm factA
	if !otherPass.ImportObjectFact(marked, &fa) || fa.N != 3 || !otherPass.ImportObjectFact(named.Method(0), &fm) || fm.N != 4 {
		t.Fatalf("cross-package import: got %+v and %+v", fa, fm)
	}
	if otherPass.ImportObjectFact(plain, &fa) || otherPass.ImportObjectFact(nil, &fa) {
		t.Fatal("import for a fact-free or nil object: want not found")
	}
	for name, export := range map[string]func(){
		"foreign object":    func() { otherPass.ExportObjectFact(marked, &factA{}) },
		"nil object":        func() { depPass.ExportObjectFact(nil, &factA{}) },
		"non-package-level": func() { depPass.ExportObjectFact(named.Underlying().(*types.Struct).Field(0), &factA{}) },
		"undeclared type":   func() { depPass.ExportObjectFact(plain, &factB{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExportObjectFact with %s: want panic", name)
				}
			}()
			export()
		}()
	}
}

func TestObjectKey(t *testing.T) {
	pkg := typecheck(t, `package p
type T struct{ F int }
func (t *T) M() {}
func (t T) V() {}
func F() {}
var X int
`)
	lookup := func(name string) types.Object { return pkg.Scope().Lookup(name) }
	if got := ObjectKey(lookup("F")); got != "F" {
		t.Errorf("func key = %q, want F", got)
	}
	if got := ObjectKey(lookup("X")); got != "X" {
		t.Errorf("var key = %q, want X", got)
	}
	named := lookup("T").Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		want := "T." + m.Name()
		if got := ObjectKey(m); got != want {
			t.Errorf("method key = %q, want %q", got, want)
		}
	}
	// A struct field is not package-level: no key.
	field := named.Underlying().(*types.Struct).Field(0)
	if got := ObjectKey(field); got != "" {
		t.Errorf("field key = %q, want empty", got)
	}
	if got := ObjectKey(nil); got != "" {
		t.Errorf("nil key = %q, want empty", got)
	}
}

// TestFactStoreCopies pins the isolation contract: mutating a fact after
// set (or the returned copy after get) must not leak into the store.
func TestFactStoreCopies(t *testing.T) {
	a := mkAnalyzer("alpha", "", (*factA)(nil))
	s := NewFactStore(a)
	f := &factA{N: 1}
	if err := s.set("alpha", "p", "F", f); err != nil {
		t.Fatal(err)
	}
	f.N = 99
	var out factA
	if !s.get("alpha", "p", "F", &out) || out.N != 1 {
		t.Fatalf("store leaked caller mutation: got %+v", out)
	}
	out.N = 42
	var again factA
	if !s.get("alpha", "p", "F", &again) || again.N != 1 {
		t.Fatalf("store leaked get-copy mutation: got %+v", again)
	}
}
