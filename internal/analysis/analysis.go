// Package analysis is a small static-analysis framework for the
// repository's own invariant checkers (heterolint), after the core API of
// golang.org/x/tools/go/analysis: Analyzer, Pass, Diagnostic, Fact. An
// analyzer may export typed facts about package-level objects and import
// the facts its own runs over dependency packages exported.
//
// The checkers run inside go test, with nothing but the standard library:
// package analysistest type-checks the module from source and runs them
// over its packages in dependency order with one in-memory FactStore
// (TestHeterolint in this directory), and over the fixtures under testdata.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is the one-paragraph help text: first line is a summary.
	Doc string
	// AllowKeyword is the //heterolint:allow keyword that suppresses this
	// analyzer's diagnostics ("vcharge" for vcharge, etc.). Empty means
	// the analyzer cannot be suppressed. Non-empty keywords must be unique
	// across the suite (enforced by Validate) so one annotation can never
	// silence two different checkers.
	AllowKeyword string
	// FactTypes lists the fact types the analyzer exports or imports, one
	// zero value per type.
	FactTypes []Fact
	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run with a single type-checked package and a
// sink for its diagnostics, mirroring go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's files. Its _test.go files among them are
	// parsed but not type-checked (TypesInfo knows nothing of them): an
	// analyzer skips them (IsTestFile), so they reach only the allow
	// protocol.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// facts is the fact store shared by every run of one lint: facts
	// exported over dependency packages plus facts exported here.
	facts *FactStore
}

// Reportf reports a diagnostic at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact records fact about obj, a package-level object (or
// method) of the pass package, for this analyzer's runs over downstream
// packages. It panics on objects from other packages or objects without a
// stable key — both are analyzer bugs.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact: object does not belong to package %s", p.Analyzer, p.Pkg.Path()))
	}
	key := ObjectKey(obj)
	if key == "" {
		panic(fmt.Sprintf("%s: ExportObjectFact: object %s is not package-level", p.Analyzer, obj.Name()))
	}
	if err := p.facts.set(p.Analyzer.Name, p.Pkg.Path(), key, fact); err != nil {
		panic(fmt.Sprintf("%s: ExportObjectFact: %v", p.Analyzer, err))
	}
}

// ImportObjectFact copies into fact the fact previously exported for obj —
// by this pass or by the same analyzer's run over the package defining obj
// — and reports whether one was found. fact must be a pointer of the
// concrete fact type.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	return p.facts.get(p.Analyzer.Name, obj.Pkg().Path(), key, fact)
}

// Diagnostic is one finding, attributed to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Validate checks the analyzer list for driver use: non-empty distinct
// names, a Run function each, pointer-shaped fact types, and distinct
// non-empty AllowKeywords (one //heterolint:allow keyword must never
// suppress two different checkers).
func Validate(analyzers []*Analyzer) error {
	seen := map[string]bool{}
	keywords := map[string]string{} // keyword -> analyzer that claimed it
	for _, a := range analyzers {
		if a.Name == "" {
			return fmt.Errorf("analysis: analyzer with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q has no Run", a.Name)
		}
		if a.AllowKeyword != "" {
			if prev, dup := keywords[a.AllowKeyword]; dup {
				return fmt.Errorf("analysis: analyzers %q and %q share allow keyword %q; one //heterolint:allow must not suppress two checkers",
					prev, a.Name, a.AllowKeyword)
			}
			keywords[a.AllowKeyword] = a.Name
		}
		for _, f := range a.FactTypes {
			if err := validateFactType(f); err != nil {
				return fmt.Errorf("analysis: analyzer %q: %v", a.Name, err)
			}
		}
	}
	return nil
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The heterolint invariants govern simulation code; tests may legitimately
// iterate maps into t.Log output or loop over floats without charging.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
