// Package vcharge flags exported functions in the metered packages
// (sparse, krylov, fem) that loop over floating-point data without a
// reachable compute charge. Virtual time is the reproduction's measurement
// instrument: a kernel that burns flops without calling ChargeCompute (or
// handing a Charger to a callee that does) silently under-reports the very
// platform differences the paper measures — the bug shows up as a puma run
// that looks faster than it should be, not as a test failure.
//
// Since v2 the reachability is transitive across packages: the analyzer
// exports a ChargesFact for every exported function or method that charges,
// and a caller in a downstream metered package inherits that knowledge
// through the fact store, so a krylov routine whose only charge is
// sparse.Axpy no longer needs an annotation. Constructors — functions named
// New* returning a pointer to a locally-defined type — are exempt: they run
// once at setup time, outside the measured solve loop.
package vcharge

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"heterohpc/internal/analysis"
)

// ChargesFact marks an exported function or method whose body reaches a
// compute charge, so calls to it from downstream metered packages count as
// charging without a local annotation.
type ChargesFact struct{}

// AFact marks ChargesFact as an analysis fact.
func (*ChargesFact) AFact() {}

// Analyzer is the vcharge checker.
var Analyzer = &analysis.Analyzer{
	Name:         "vcharge",
	AllowKeyword: "vcharge",
	FactTypes:    []analysis.Fact{(*ChargesFact)(nil)},
	Doc: `require metered packages to charge looped float work to the virtual clock

Exported functions in sparse, krylov and fem that run a loop doing float64
arithmetic must call ChargeCompute/ChargeComm, pass a Charger to a callee,
or call a helper — package-local or exported from another metered package —
that does (charging knowledge crosses package boundaries as facts).
Constructors (New* returning a pointer to a locally-defined type) are
setup-time and exempt. Deliberately uncharged helpers (exact solutions,
test support) carry //heterolint:allow vcharge <why>.`,
	Run: run,
}

// meteredPkgs are the final import-path segments whose compute is charged.
var meteredPkgs = []string{"sparse", "krylov", "fem"}

func run(pass *analysis.Pass) (interface{}, error) {
	if !appliesTo(pass.Pkg.Path()) {
		return nil, nil
	}
	chargerIface := findChargerInterface(pass.Pkg)

	// Package-local functions and methods, keyed by their *types.Func, with
	// a fixpoint over "calls a charging helper": a norm charges because the
	// DotLocal it calls does, and DotLocal's cross-package analogue charges because
	// its defining package exported a ChargesFact for it.
	decls := map[*types.Func]*ast.FuncDecl{}
	var order []*types.Func
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				decls[obj] = fn
				order = append(order, obj)
			}
		}
	}
	charges := map[*types.Func]bool{}
	for _, obj := range order {
		if chargesDirectly(pass, decls[obj].Body, chargerIface) {
			charges[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			if charges[obj] {
				continue
			}
			if callsCharging(pass, decls[obj].Body, charges) {
				charges[obj] = true
				changed = true
			}
		}
	}

	// Publish what downstream metered packages may rely on: every exported
	// charging function or method with a stable object key.
	for _, obj := range order {
		if charges[obj] && obj.Exported() && analysis.ObjectKey(obj) != "" {
			pass.ExportObjectFact(obj, &ChargesFact{})
		}
	}

	for _, obj := range order {
		fn := decls[obj]
		if !fn.Name.IsExported() || charges[obj] {
			continue
		}
		if isConstructor(pass, fn) {
			continue
		}
		if _, found := computeLoop(pass, fn.Body); found {
			// Report at the declaration: the invariant is function-level,
			// and the //heterolint:allow annotation sits above the func.
			pass.Reportf(fn.Name.Pos(),
				"exported %s loops over float64 data with no reachable compute charge; thread a Charger through it so the work lands on the virtual clock",
				fn.Name.Name)
		}
	}
	return nil, nil
}

func appliesTo(path string) bool {
	seg := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		seg = path[i+1:]
	}
	for _, p := range meteredPkgs {
		if seg == p {
			return true
		}
	}
	return false
}

// isConstructor reports whether fn is a setup-time constructor: a function
// (not a method) named New* whose first result is a pointer to a named type
// defined in this package. Constructors assemble data structures before the
// measured solve begins; their loops are allocation, not compute.
func isConstructor(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "New") {
		return false
	}
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() == 0 {
		return false
	}
	ptr, ok := sig.Results().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() == pass.Pkg
}

// findChargerInterface locates the Charger interface — in this package or
// any direct import — identified by name and a ChargeCompute method.
func findChargerInterface(pkg *types.Package) *types.Interface {
	scopes := []*types.Scope{pkg.Scope()}
	for _, imp := range pkg.Imports() {
		scopes = append(scopes, imp.Scope())
	}
	for _, s := range scopes {
		obj := s.Lookup("Charger")
		if obj == nil {
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "ChargeCompute" {
				return iface
			}
		}
	}
	return nil
}

// chargesDirectly reports whether body contains a Charge* method call or a
// call that hands a Charger-typed argument to its callee.
func chargesDirectly(pass *analysis.Pass, body *ast.BlockStmt, iface *types.Interface) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "ChargeCompute" || sel.Sel.Name == "ChargeComm" {
				found = true
				return false
			}
		}
		if iface != nil {
			for _, arg := range call.Args {
				t := pass.TypesInfo.TypeOf(arg)
				if t == nil {
					continue
				}
				if types.Implements(t, iface) || types.AssignableTo(t, iface) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// callsCharging reports whether body calls a function already known to
// charge: a package-local one from the fixpoint map, or a foreign one whose
// defining package exported a ChargesFact for it.
func callsCharging(pass *analysis.Pass, body *ast.BlockStmt, charges map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee = pass.TypesInfo.Uses[fun]
		case *ast.SelectorExpr:
			callee = pass.TypesInfo.Uses[fun.Sel]
		}
		f, ok := callee.(*types.Func)
		if !ok {
			return true
		}
		if charges[f] {
			found = true
			return false
		}
		if f.Pkg() != nil && f.Pkg() != pass.Pkg {
			var fact ChargesFact
			if pass.ImportObjectFact(f, &fact) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// computeLoop finds a for/range loop whose body performs float64 arithmetic
// — a binary +,-,*,/ of float64 type, or a compound assign on a float64
// lvalue. Index bookkeeping and data copies do not count as compute.
func computeLoop(pass *analysis.Pass, body *ast.BlockStmt) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		if floatArith(pass, loopBody) {
			pos, found = n.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}

func floatArith(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				if isFloat64(pass.TypesInfo.TypeOf(e)) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			switch e.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(e.Lhs) == 1 && isFloat64(pass.TypesInfo.TypeOf(e.Lhs[0])) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func isFloat64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Float64 || b.Kind() == types.UntypedFloat)
}
