package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"heterohpc/internal/analysis"
	"heterohpc/internal/analysis/analysistest"
	"heterohpc/internal/analysis/vcharge"
)

// module is the module, loaded once for every test that needs it whole.
var module struct {
	once sync.Once
	prog *analysistest.Program
	err  error
}

func loadModule(t *testing.T) *analysistest.Program {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	module.once.Do(func() { module.prog, module.err = analysistest.LoadModule(filepath.Join("..", "..")) })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.prog
}

// lint runs the Heterolint suite over prog and gives each finding as
// "dir/file.go:line:col: message [analyzer]", the file relative to prog.Dir.
func lint(t *testing.T, prog *analysistest.Program) []string {
	t.Helper()
	findings, err := prog.Lint(analysistest.Heterolint...)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range findings {
		posn := prog.Fset.Position(f.Pos)
		if rel, err := filepath.Rel(prog.Dir, posn.Filename); err == nil {
			posn.Filename = filepath.ToSlash(rel)
		}
		out = append(out, posn.String()+": "+f.Message+" ["+f.Analyzer.Name+"]")
	}
	return out
}

// TestHeterolint runs maporder, vcharge and obskind over every package of
// the module and fails on each finding. See EXPERIMENTS.md
// § Static analysis for what each enforces and when a //heterolint:allow
// suppression is acceptable.
func TestHeterolint(t *testing.T) {
	for _, line := range lint(t, loadModule(t)) {
		t.Error(line)
	}
}

// TestHeterolintReportsAllowsInTestFiles: the analyzers skip _test.go
// files, so an allow annotation in one, in-package or external, suppresses
// nothing and fails the lint. Lint also refuses a suite in which two
// analyzers share an allow keyword.
func TestHeterolintReportsAllowsInTestFiles(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":    "module example\n",
		"p.go":      "package p\n",
		"p_test.go": "package p\n\n//heterolint:allow vcharge in a test file\nfunc helper() {}\n",
		"x_test.go": "package p_test\n\n//heterolint:allow maporder in an external test file\nfunc helper() {}\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := analysistest.LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Join(lint(t, prog), "\n"), strings.Join([]string{
		"x_test.go:3:1: unused //heterolint:allow maporder annotation (nothing to suppress here) [maporder]",
		"p_test.go:3:1: unused //heterolint:allow vcharge annotation (nothing to suppress here) [vcharge]",
	}, "\n")
	if got != want {
		t.Fatalf("lint:\n%s\nwant:\n%s", got, want)
	}
	twin := &analysis.Analyzer{Name: "twin", AllowKeyword: "vcharge", Run: vcharge.Analyzer.Run}
	if _, err := prog.Lint(vcharge.Analyzer, twin); err == nil || !strings.Contains(err.Error(), `share allow keyword "vcharge"`) {
		t.Fatalf("Lint with a shared keyword = %v, want it refused", err)
	}
}
