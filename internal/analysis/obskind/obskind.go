// Package obskind guards the observability layer's journal contract. The
// obs run journal is the reproduction's ground truth — experiment diffs,
// CI comparisons and the paper's tables are all joins over (Kind, fields)
// records — so the invariants are about record shape, not behavior:
//
//   - a literal journal kind belongs to exactly one writer function per
//     package. Two writers sharing "halo" would merge distinct phenomena
//     into one time series and no test would notice.
//   - outside package obs, raw obs.Event literals are flagged: events flow
//     through the Recorder emit helpers, which stamp T and Rank and keep
//     the kind registry honest.
//
// Both rules are lint rather than tests because breaking either in real
// code leaves every journal deterministic and parseable, so go test passes.
package obskind

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"heterohpc/internal/analysis"
)

// Analyzer is the obskind checker.
var Analyzer = &analysis.Analyzer{
	Name:         "obskind",
	AllowKeyword: "obskind",
	Doc: `keep obs journal records well-shaped: unique kinds, no raw events outside obs

A literal Kind string may be emitted by only one function per package;
packages other than obs must not build raw obs.Event literals.
Exceptions carry //heterolint:allow obskind <why>.`,
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	inObs := finalSegment(pass.Pkg.Path()) == "obs"
	kindWriter := map[string]string{} // literal kind -> first writer func
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			funcName := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !isEvent(pass, lit) {
					return true
				}
				if !inObs {
					pass.Reportf(lit.Pos(),
						"raw obs.Event literal outside package obs; emit through the Recorder helpers so T/Rank are stamped and the kind registry stays authoritative")
					return true
				}
				if kind, ok := literalKind(lit); ok {
					if prev, seen := kindWriter[kind]; seen && prev != funcName {
						pass.Reportf(lit.Pos(),
							"journal kind %q is already emitted by %s; a kind identifies exactly one writer", kind, prev)
					} else if !seen {
						kindWriter[kind] = funcName
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

func finalSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isEvent reports whether lit builds the Event struct of a package obs.
func isEvent(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	named, ok := pass.TypesInfo.TypeOf(lit).(*types.Named)
	return ok && named.Obj().Name() == "Event" && named.Obj().Pkg() != nil &&
		finalSegment(named.Obj().Pkg().Path()) == "obs"
}

// literalKind extracts the constant string assigned to the Kind field, if
// the literal sets one.
func literalKind(lit *ast.CompositeLit) (string, bool) {
	for _, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Kind" {
			continue
		}
		bl, ok := kv.Value.(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(bl.Value)
		if err != nil {
			return "", false
		}
		return s, true
	}
	return "", false
}
