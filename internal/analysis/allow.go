package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// allowPrefix introduces a suppression comment. The full form is
//
//	//heterolint:allow <keyword> <justification...>
//
// placed on the offending line or the line directly above it. The
// justification is mandatory: a suppression that does not say why it is
// safe is itself reported. Unused suppressions (no diagnostic at that
// line) are reported too, so annotations cannot outlive the code they
// excused.
const allowPrefix = "heterolint:allow"

// Allow is one parsed //heterolint:allow annotation.
type Allow struct {
	Keyword string
	Reason  string
	Pos     token.Pos
	File    string
	Line    int
}

// CollectAllows extracts every allow annotation from the files.
func CollectAllows(fset *token.FileSet, files []*ast.File) []Allow {
	var out []Allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				// Inside analysistest fixtures an expectation marker can
				// share the comment ("//heterolint:allow x why // want …");
				// it is not part of the justification.
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				keyword, reason, _ := strings.Cut(rest, " ")
				posn := fset.Position(c.Pos())
				out = append(out, Allow{
					Keyword: keyword,
					Reason:  strings.TrimSpace(reason),
					Pos:     c.Pos(),
					File:    posn.Filename,
					Line:    posn.Line,
				})
			}
		}
	}
	return out
}

// RunAnalyzer runs one analyzer over a type-checked package and applies the
// allow-annotation protocol: diagnostics on (or directly below) a matching
// annotation are suppressed, suppressions without a justification are
// reported, and annotations that suppressed nothing are reported as stale.
// Diagnostics come back sorted by position so every run prints the same
// order — the suite practices the determinism it preaches.
//
// facts is the lint's shared fact store: facts exported over dependency
// packages in, this package's out.
func RunAnalyzer(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore) ([]Diagnostic, error) {
	var raw []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d Diagnostic) { raw = append(raw, d) },
		facts:     facts,
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	if a.AllowKeyword == "" {
		sortDiagnostics(fset, raw)
		return raw, nil
	}

	allows := CollectAllows(fset, files)
	type key struct {
		file string
		line int
	}
	byLine := map[key]int{} // -> index into allows
	for i, al := range allows {
		if al.Keyword == a.AllowKeyword {
			byLine[key{al.File, al.Line}] = i
		}
	}
	used := make([]bool, len(allows))
	var kept []Diagnostic
	for _, d := range raw {
		posn := fset.Position(d.Pos)
		idx, ok := byLine[key{posn.Filename, posn.Line}]
		if !ok {
			idx, ok = byLine[key{posn.Filename, posn.Line - 1}]
		}
		if ok {
			used[idx] = true
			continue
		}
		kept = append(kept, d)
	}
	for i, al := range allows {
		if al.Keyword != a.AllowKeyword {
			continue
		}
		switch {
		case !used[i]:
			kept = append(kept, Diagnostic{Pos: al.Pos, Message: "unused //heterolint:allow " + a.AllowKeyword + " annotation (nothing to suppress here)"})
		case al.Reason == "":
			kept = append(kept, Diagnostic{Pos: al.Pos, Message: "//heterolint:allow " + a.AllowKeyword + " needs a justification after the keyword"})
		}
	}
	sortDiagnostics(fset, kept)
	return kept, nil
}

func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Message < ds[j].Message
	})
}
