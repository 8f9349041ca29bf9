package analysis

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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
	"sparse.DistMatrix.Rank":    "names the rank a frozen operator lives on (rd_test.go, nse_test.go: TestConstantOperatorsSharedPerClass)",
	"mp.World.Clocks":           "reads every rank's clock after a halo run (link_oracle_test.go: TestImporterLinksMatchMailbox)",
	"vclock.Clock.Counters":     "reads a rank's message counts (sparse link_oracle_test.go: TestImporterLinksMatchMailbox)",
	"stats.RNG.Perm":            "shuffles the ragged test matrices' columns (mulvec_oracle_test.go: TestMulVecMatchesRowReference)",
	"mesh.Local.IndexBytes":     "bounds the index footprint (rowmap_oracle_test.go: TestRowMapIndexFootprint)",
	"mp.Rank.RecvF64AddScatter": "the mailbox receive the link oracles compare against (link_oracle_test.go: TestImporterLinksMatchMailbox)",
	"fem.NewSpaceParts":         "the irregular 5-part world of the structure oracles (structure_oracle_test.go: TestInternedStructureMatchesPerRankBuild)",
	"pkg analysis/analysistest": "the analyzers' fixture driver (maporder_test.go: TestMaporder and the other analyzers' tests)",
}

// TestNoExportedNameOnlyTestsCall type-checks every non-test file of the
// module (cmd/, examples/ and benchmarks/ count as callers) and fails on
// each exported function, method, type, var or const of the root package
// or of an internal/ package that no non-test file uses. A method also
// counts as used when its receiver or pointer-to-receiver implements a
// loaded interface with a method of that name (error, fmt.Stringer,
// krylov.Preconditioner, ...).
func TestNoExportedNameOnlyTestsCall(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := m.unusedExports()
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

// module is the type-checked non-test code of one Go module.
type module struct {
	path  string // module path, "heterohpc"
	fset  *token.FileSet
	pkgs  map[string]*types.Package // by import path, module packages only
	info  map[string]*types.Info
	order []string          // import paths in type-check order
	dirs  map[string]string // import path -> directory
	std   types.Importer    // the standard library, from source
}

// loadModule parses and type-checks every package directory under root
// (skipping testdata and hidden directories) from its non-test files.
func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: map[string]*types.Info{},
		dirs: map[string]string{},
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		imp := m.path
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		m.dirs[imp] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.dirs))
	for imp := range m.dirs {
		paths = append(paths, imp)
	}
	sort.Strings(paths)
	for _, imp := range paths {
		if _, err := m.load(imp); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// load type-checks one module package (memoised); a directory with no
// non-test Go file gives a nil package.
func (m *module) load(imp string) (*types.Package, error) {
	if pkg, ok := m.pkgs[imp]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(m.dirs[imp], 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importerFunc(m.importPath)}
	pkg, err := conf.Check(imp, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[imp], m.info[imp] = pkg, info
	m.order = append(m.order, imp)
	return pkg, nil
}

// importPath resolves an import: a module package is type-checked here, so
// each of its names is one object across the module; the rest is the
// standard library.
func (m *module) importPath(path string) (*types.Package, error) {
	if path == m.path || strings.HasPrefix(path, m.path+"/") {
		return m.load(path)
	}
	return m.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unusedExports returns the keys of the exported names of the root and
// internal/ packages that no non-test file uses, sorted.
func (m *module) unusedExports() ([]string, error) {
	used := map[types.Object]bool{}
	for _, imp := range m.order {
		for _, obj := range m.info[imp].Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
	}
	ifaces, err := m.interfaces()
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, imp := range m.order {
		key, ok := m.keyPrefix(imp)
		if !ok {
			continue
		}
		scope := m.pkgs[imp].Scope()
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
func (m *module) keyPrefix(imp string) (string, bool) {
	if imp == m.path {
		return m.path + ".", true
	}
	rel, ok := strings.CutPrefix(imp, m.path+"/internal/")
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
func (m *module) interfaces() ([]*types.Interface, error) {
	f, err := parser.ParseFile(m.fset, "asserts.go", unnamedAsserts, 0)
	if err != nil {
		return nil, err
	}
	asserts, err := new(types.Config).Check("asserts", m.fset, []*ast.File{f}, nil)
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
	for _, imp := range m.order {
		walk(m.pkgs[imp])
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
