package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"heterohpc/internal/analysis/analysistest"
)

// testOnlyExports lists the exported names that no non-test file uses but
// another package's tests do. It may only shrink: an entry whose name is
// used again, or deleted, fails the test too. A key is the package path
// below the module ("sparse.CSR.Clone"), or a whole package ("pkg
// analysis/analysistest").
var testOnlyExports = map[string]string{
	"sparse.COO.Add":            "builds the krylov solver tests' matrices (krylov_test.go: TestCGRandomSPDProperty)",
	"sparse.NewCSRFromCOO":      "builds the krylov solver tests' local blocks (krylov_test.go: TestJacobiExactOnDiagonal)",
	"sparse.CSR.Clone":          "copies an application block for the sweep oracles (sweep_oracle_test.go: TestSweepsMatchPredicateReference)",
	"sparse.CSR.Dense":          "expands a block for the dense solver oracle (krylov_test.go: TestSolversMatchDenseOracle)",
	"sparse.NewRowMap":          "lays out the distributed Laplacian (dist_zeroalloc_test.go: TestDistributedCGSolvesLaplacian)",
	"mp.World.Clocks":           "reads every rank's clock after a halo run (link_oracle_test.go: TestImporterLinksMatchMailbox)",
	"vclock.Clock.Counters":     "reads a rank's message counts (sparse link_oracle_test.go: TestImporterLinksMatchMailbox)",
	"stats.RNG.Perm":            "shuffles the ragged test matrices' columns (mulvec_oracle_test.go: TestMulVecMatchesRowReference)",
	"mesh.Local.IndexBytes":     "bounds the index footprint (rowmap_oracle_test.go: TestRowMapIndexFootprint)",
	"mp.Rank.RecvF64AddScatter": "the mailbox receive the link oracles compare against (link_oracle_test.go: TestImporterLinksMatchMailbox)",
	"fem.NewSpaceParts":         "the irregular 5-part world of the structure oracles (structure_oracle_test.go: TestInternedStructureMatchesPerRankBuild)",
	"pkg analysis/analysistest": "the analyzers' loader and driver (lint_test.go: TestHeterolint; maporder_test.go: TestMaporder and the other fixture tests)",
}

// TestNoExportedNameOnlyTestsCall type-checks every non-test file of the
// module (cmd/, examples/ and benchmarks/ count as callers) and fails on
// each exported function, method, type, var or const of the root package
// or of an internal/ package that no non-test file uses. A method also
// counts as used when its receiver or pointer-to-receiver implements a
// loaded interface with a method of that name (error, fmt.Stringer,
// krylov.Preconditioner, ...).
func TestNoExportedNameOnlyTestsCall(t *testing.T) {
	dead, err := unusedExports(loadModule(t))
	if err != nil {
		t.Fatal(err)
	}

	var errs []string
	for _, key := range dead {
		_, name := testOnlyExports[key]
		_, pkg := testOnlyExports["pkg "+pkgOf(key)]
		if !name && !pkg {
			errs = append(errs, key+": no non-test file uses it; delete it, or list the test that needs it")
		}
	}
	flagged := make(map[string]bool, len(dead))
	for _, key := range dead {
		flagged[key] = true
		flagged["pkg "+pkgOf(key)] = true
	}
	for key := range testOnlyExports {
		if !flagged[key] {
			errs = append(errs, key+": allowed, but not flagged any more; drop it from testOnlyExports")
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}

// pkgOf returns the package part of a key: "sparse" of "sparse.CSR.Clone".
func pkgOf(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

// unusedExports returns the keys of the exported names of the root and
// internal/ packages that no non-test file uses, sorted.
func unusedExports(prog *analysistest.Program) ([]string, error) {
	used := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
	}
	ifaces, err := interfaces(prog)
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, pkg := range prog.Packages {
		key, ok := keyPrefix(prog.Path, pkg.Path)
		if !ok {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				dead = append(dead, key+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() && !used[fn] && !satisfies(named, fn.Name(), ifaces) {
					dead = append(dead, key+name+"."+fn.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// keyPrefix gives "sparse." for heterohpc/internal/sparse and "heterohpc."
// for the root package; other packages (cmd/, examples/, benchmarks/) are
// callers only.
func keyPrefix(module, imp string) (string, bool) {
	if imp == module {
		return module + ".", true
	}
	rel, ok := strings.CutPrefix(imp, module+"/internal/")
	return rel + ".", ok
}

// unnamedAsserts holds the interfaces the standard library asserts without
// naming them: errors.Is, As and Unwrap look for these methods.
const unnamedAsserts = `package asserts

type (
	wrapper      interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)
`

// interfaces returns every named interface type of every loaded package,
// the standard library's included, plus error and unnamedAsserts.
func interfaces(prog *analysistest.Program) ([]*types.Interface, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "asserts.go", unnamedAsserts, 0)
	if err != nil {
		return nil, err
	}
	asserts, err := new(types.Config).Check("asserts", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	walk(asserts)
	for _, pkg := range prog.Packages {
		walk(pkg.Types)
	}
	return out, nil
}

// satisfies reports whether T or *T implements one of ifaces that has a
// method called name.
func satisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if hasMethod(it, name) && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
