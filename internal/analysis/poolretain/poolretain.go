// Package poolretain enforces the mp payload pool's ownership protocol
// (documented on f64Pool in internal/mp/pool.go): every in-flight f64
// payload is pool-owned; a buffer obtained from get — on the shared f64Pool
// or on a rank's private rankPool front — is either handed to a mailbox
// inside a message value (ownership transfer), returned to the caller by a
// documented transfer point (RecvF64), or given back with put — after which
// it must never be touched again. Retaining a pooled buffer in
// a struct field, a package-level variable, or a goroutine closure aliases
// memory the pool will hand to the next sender, corrupting payloads in
// ways that only surface as golden mismatches much later.
package poolretain

import (
	"go/ast"
	"go/token"
	"go/types"

	"heterohpc/internal/analysis"
)

// Analyzer is the poolretain checker.
var Analyzer = &analysis.Analyzer{
	Name:         "poolretain",
	AllowKeyword: "poolretain",
	Doc: `enforce the mp payload pool's buffer-ownership protocol

Buffers from (*f64Pool).get or (*rankPool).get (or scratch, its uncounted
twin) and message payloads may be
handed to a mailbox inside a message value, returned to the application at a
documented transfer point, or recycled with put. Storing one in a field, a
global, or a goroutine closure — or touching it after put — aliases pool
memory. The pool's own free stacks are the one place a buffer may rest.
Suppress a deliberate exception with //heterolint:allow poolretain <why>.`,
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() != "mp" {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	owned := pooledVars(pass, body)
	checkRetention(pass, body, owned)
	checkUseAfterPut(pass, body)
}

// pooledVars collects the objects of variables assigned directly from a
// pool's get.
func pooledVars(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	owned := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if !isPoolCall(pass, as.Rhs[0], "get") {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				owned[obj] = true
			}
		}
		return true
	})
	return owned
}

// checkRetention flags stores of pool-owned buffers into locations that
// outlive the documented buffer lifetime.
func checkRetention(pass *analysis.Pass, body *ast.BlockStmt, owned map[types.Object]bool) {
	if len(owned) == 0 {
		return
	}
	isOwned := func(e ast.Expr) (types.Object, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := pass.TypesInfo.ObjectOf(id)
		return obj, obj != nil && owned[obj]
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				obj, ok := isOwned(rhs)
				if !ok || i >= len(s.Lhs) {
					continue
				}
				switch lhs := s.Lhs[i].(type) {
				case *ast.SelectorExpr:
					if isPoolType(pass, pass.TypesInfo.TypeOf(lhs.X)) {
						// A pool level parking a buffer it drew from the
						// level below in its own free stack.
						continue
					}
					pass.Reportf(s.Pos(),
						"pooled buffer %s stored into field %s outlives its pool lifetime; copy it or hand it off inside a message",
						obj.Name(), lhs.Sel.Name)
				case *ast.Ident:
					if v, isVar := pass.TypesInfo.ObjectOf(lhs).(*types.Var); isVar && v.Parent() == pass.Pkg.Scope() {
						pass.Reportf(s.Pos(),
							"pooled buffer %s stored into package-level variable %s outlives its pool lifetime",
							obj.Name(), lhs.Name)
					}
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(s)
			if named, ok := derefNamed(t); ok && named.Obj().Name() == "message" && named.Obj().Pkg() == pass.Pkg {
				// The sanctioned handoff: a message literal carries the
				// buffer to the destination mailbox.
				return true
			}
			for _, elt := range s.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if obj, ok := isOwned(val); ok {
					pass.Reportf(val.Pos(),
						"pooled buffer %s retained inside a composite literal; only message values may carry pool-owned payloads",
						obj.Name())
				}
			}
		case *ast.GoStmt:
			ast.Inspect(s.Call, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil && owned[obj] {
						pass.Reportf(id.Pos(),
							"pooled buffer %s captured by a goroutine escapes its pool lifetime",
							obj.Name())
					}
				}
				return true
			})
		}
		return true
	})
}

// checkUseAfterPut flags, within each statement list, any mention of a
// buffer after the statement that returned it to the pool. Sibling
// statements only: conditional put-then-return shapes are not flagged.
func checkUseAfterPut(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok || !isPoolCall(pass, es.X, "put") {
				continue
			}
			arg := es.X.(*ast.CallExpr).Args[0]
			for _, later := range block.List[i+1:] {
				if pos, found := firstMention(pass, later, arg); found {
					pass.Reportf(pos,
						"use of pooled buffer after put returned it to the pool; the pool may already have handed it to another sender")
					break
				}
			}
		}
		return true
	})
}

// firstMention finds the first reference inside stmt to the same buffer the
// put call released: the identical object for a plain identifier, or the
// same base object + field for a selector like m.f64.
func firstMention(pass *analysis.Pass, stmt ast.Stmt, putArg ast.Expr) (pos token.Pos, found bool) {
	switch a := putArg.(type) {
	case *ast.Ident:
		target := pass.TypesInfo.ObjectOf(a)
		if target == nil {
			return 0, false
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == target {
				pos, found = id.Pos(), true
				return false
			}
			return true
		})
	case *ast.SelectorExpr:
		base := pass.TypesInfo.ObjectOf(rootIdent(a.X))
		if base == nil {
			return 0, false
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != a.Sel.Name {
				return true
			}
			if pass.TypesInfo.ObjectOf(rootIdent(sel.X)) == base {
				pos, found = sel.Pos(), true
				return false
			}
			return true
		})
	}
	return pos, found
}

// uncounted names rankPool's get and put outside the traffic counts, which
// the vector collectives use: the same ownership rules apply.
var uncounted = map[string]string{"scratch": "get", "release": "put"}

// isPoolCall reports whether expr is a call to the named method, or to its
// uncounted twin, on one of the package's pool types.
func isPoolCall(pass *analysis.Pass, expr ast.Expr, method string) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isPoolType(pass, pass.TypesInfo.TypeOf(sel.X)) {
		return false
	}
	return sel.Sel.Name == method || uncounted[sel.Sel.Name] == method
}

// isPoolType reports whether t is (a pointer to) one of the two levels of
// the payload pool: the world's shared f64Pool or a rank's private rankPool.
func isPoolType(pass *analysis.Pass, t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return false
	}
	return named.Obj().Name() == "f64Pool" || named.Obj().Name() == "rankPool"
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// rootIdent unwraps selectors and indexing down to the leftmost identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
