package unitchecker

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterohpc/internal/analysis"
)

type markFact struct{ N int }

func (*markFact) AFact() {}

// mark exports a fact for the package-level func Marked and reports each
// call to a func that carries one; always is fact-free and reports once.
var (
	mark = &analysis.Analyzer{Name: "mark", FactTypes: []analysis.Fact{(*markFact)(nil)}, Run: func(pass *analysis.Pass) (interface{}, error) {
		if obj := pass.Pkg.Scope().Lookup("Marked"); obj != nil {
			pass.ExportObjectFact(obj, &markFact{N: 1})
		}
		ast.Inspect(pass.Files[0], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.ImportObjectFact(pass.TypesInfo.Uses[id], new(markFact)) {
				pass.Reportf(id.Pos(), "use of marked %s", id.Name)
			}
			return true
		})
		return nil, nil
	}}
	always = &analysis.Analyzer{Name: "always", Run: func(pass *analysis.Pass) (interface{}, error) {
		pass.Reportf(pass.Files[0].Package, "file seen")
		return nil, nil
	}}
)

// runUnit lays out one import-free unit as example/p in a temp dir, with
// the dependency .vetx files named in vetx, and runs the analyzers on it.
// It returns the result and the facts the unit wrote to its VetxOutput.
func runUnit(t *testing.T, src string, vetxOnly bool, vetx map[string]string, analyzers ...*analysis.Analyzer) (*Result, string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cfg := Config{Compiler: "gc", ImportPath: "example/p", GoFiles: []string{write("p.go", src)},
		PackageVetx: map[string]string{}, VetxOnly: vetxOnly, VetxOutput: filepath.Join(dir, "p.vetx")}
	for dep, content := range vetx {
		cfg.PackageVetx[dep] = write(filepath.Base(dep)+".vetx", content)
	}
	data, _ := json.Marshal(cfg)
	res, err := Run(write("vet.cfg", string(data)), analyzers)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(cfg.VetxOutput)
	if err != nil {
		t.Fatal(err)
	}
	facts, ok := strings.CutPrefix(string(out), vetxHeader+"\n")
	if !ok {
		t.Fatalf("vetx output lacks the %q header: %q", vetxHeader, out)
	}
	return res, facts
}

// TestRunFactClosure: a unit inherits its dependencies' facts, tolerates
// legacy and garbage .vetx files, reports with its own facts visible, and
// writes the merged closure to VetxOutput.
func TestRunFactClosure(t *testing.T) {
	_, depFacts := runUnit(t, "package p\n\nfunc Marked() {}\n", false, nil, mark)
	inherited := strings.ReplaceAll(depFacts, "example/p", "example/dep")
	res, facts := runUnit(t, "package p\n\nfunc Marked() {}\n\nfunc use() { Marked() }\n", false, map[string]string{
		"example/dep":    vetxHeader + "\n" + inherited,
		"example/legacy": "heterolint\n",
		"example/broken": vetxHeader + "\nnot json",
	}, mark, always)
	var got []string
	for _, d := range res.Diagnostics {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	if want := "mark: use of marked Marked\nalways: file seen"; res.ImportPath != "example/p" || strings.Join(got, "\n") != want {
		t.Fatalf("Run = %s %q, want %q", res.ImportPath, got, want)
	}
	// Decode and re-encode: the records left are the facts the store kept.
	store := analysis.NewFactStore(mark)
	var kept []json.RawMessage
	err := store.Decode([]byte(facts))
	if err == nil {
		var enc []byte
		if enc, err = store.Encode(); err == nil {
			err = json.Unmarshal(enc, &kept)
		}
	}
	if err != nil || len(kept) != 2 || !strings.Contains(facts, "example/dep") {
		t.Fatalf("vetx output %q holds %d facts (err %v), want the inherited one and the unit's own", facts, len(kept), err)
	}
}

// TestRunVetxOnly: facts-only units run just the fact-producing analyzers,
// report nothing, and still write their facts; with no such analyzer they
// leave only the placeholder cmd/go expects.
func TestRunVetxOnly(t *testing.T) {
	src := "package p\n\nfunc Marked() {}\n\nfunc use() { Marked() }\n"
	if res, facts := runUnit(t, src, true, nil, mark, always); len(res.Diagnostics) != 0 || !strings.Contains(facts, `"o":"Marked"`) {
		t.Fatalf("VetxOnly unit: diagnostics %+v, facts %q", res.Diagnostics, facts)
	}
	if res, facts := runUnit(t, src, true, nil, always); len(res.Diagnostics) != 0 || facts != "" {
		t.Fatalf("fact-free VetxOnly unit: diagnostics %+v, facts %q", res.Diagnostics, facts)
	}
}

// TestPrintJSON pins the upstream -json schema cmd/go relays:
// {"importpath": {"analyzer": [{"posn", "message"}]}}.
func TestPrintJSON(t *testing.T) {
	var buf bytes.Buffer
	printJSON(&buf, &Result{ImportPath: "example/p", Diagnostics: []JSONDiagnostic{
		{Analyzer: "a", Posn: "p.go:1:1", Message: "one"},
		{Analyzer: "b", Posn: "p.go:2:1", Message: "two"},
		{Analyzer: "a", Posn: "p.go:3:1", Message: "three"},
	}})
	want := `{"example/p":{"a":[{"posn":"p.go:1:1","message":"one"},{"posn":"p.go:3:1","message":"three"}],"b":[{"posn":"p.go:2:1","message":"two"}]}}`
	if got := strings.Join(strings.Fields(buf.String()), ""); got != want {
		t.Fatalf("printJSON = %s\nwant %s", got, want)
	}
}

func TestSortedValues(t *testing.T) {
	if got := sortedValues(map[string]string{"c": "3", "a": "1", "d": "4", "b": "2"}); strings.Join(got, ",") != "1,2,3,4" {
		t.Fatalf("sortedValues = %v, want values in key order", got)
	}
}
