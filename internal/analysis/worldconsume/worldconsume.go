// Package worldconsume flags uses of an mp.World after it has been passed
// through a consuming reshape call. Reform revokes the receiver's mailboxes
// and hands back a fresh *World; the old value is poisoned by contract (mp
// documents it as consumed), but nothing at runtime stops a caller from
// Send-ing on it — the bug surfaces as a deadlocked barrier or a message
// routed to a dead rank, deep inside a fault-storm replay. The analyzer
// enforces the contract statically: after `rf, _ := w.Reform(nil, nil, nil,
// 0)`, any later use of `w` (or `af.World`, for selector receivers) in
// straight-line code is a diagnostic until the variable is reassigned.
//
// The scan is deliberately flow-light: it walks statements *after* the
// consuming call in the same block, ascending only through unconditional
// blocks. A use in a sibling branch (else-arm, other case) is not flagged —
// the contract there depends on which path executed, and the analyzer
// never guesses. Test files are skipped: mp's own tests consume worlds
// twice on purpose to prove the panic.
package worldconsume

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"heterohpc/internal/analysis"
)

// Analyzer is the worldconsume checker.
var Analyzer = &analysis.Analyzer{
	Name:         "worldconsume",
	AllowKeyword: "worldconsume",
	Doc: `flag uses of an mp.World after Reform consumed it

Reshape calls invalidate their receiver and return the world to keep using;
touching the old value afterwards talks to revoked mailboxes.
Reassigning the variable (w = nw) ends the poisoned window. Deliberate
double-consumes (panic tests live in _test.go files, which are skipped)
carry //heterolint:allow worldconsume <why>.`,
	Run: run,
}

// consumingMethods invalidate their *mp.World receiver.
var consumingMethods = map[string]bool{"Reform": true}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil, nil
}

// consumption is one consuming call with the ancestor chain that leads to
// it (outermost first, starting at the function body).
type consumption struct {
	call   *ast.CallExpr
	method string
	base   types.Object // object of the receiver path's base identifier
	fields []string     // selector fields after the base ("af.World" -> ["World"])
	chain  []ast.Node
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var stack []ast.Node
	var found []consumption
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !consumingMethods[sel.Sel.Name] {
			return true
		}
		if !isWorld(pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
		base, fields, ok := receiverPath(pass, sel.X)
		if !ok {
			return true
		}
		found = append(found, consumption{
			call:   call,
			method: sel.Sel.Name,
			base:   base,
			fields: fields,
			chain:  append([]ast.Node(nil), stack...),
		})
		return true
	})
	for _, c := range found {
		scanAfter(pass, c)
	}
}

// isWorld reports whether t is mp.World or a pointer to it.
func isWorld(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "World" || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "mp" || strings.HasSuffix(path, "/mp")
}

// receiverPath flattens a receiver expression into (base object, field
// names): `w` -> (w, nil), `af.World` -> (af, ["World"]). Receivers that
// are not a plain identifier-rooted selector chain (calls, index exprs)
// are not trackable.
func receiverPath(pass *analysis.Pass, e ast.Expr) (types.Object, []string, bool) {
	var fields []string
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				return nil, nil, false
			}
			// Reverse: fields were collected innermost-first.
			for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
				fields[i], fields[j] = fields[j], fields[i]
			}
			return obj, fields, true
		case *ast.SelectorExpr:
			fields = append(fields, x.Sel.Name)
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, nil, false
		}
	}
}

// scanAfter walks the statements that execute unconditionally after the
// consuming call and reports the first use of the consumed path, stopping
// at a reassignment or a control-flow boundary.
func scanAfter(pass *analysis.Pass, c consumption) {
	// `w = w.Reform(nil, nil, nil, 0)` consumes and reassigns in one statement: the old
	// value is dead but the name already holds the replacement, so there is
	// no poisoned window to scan.
	for _, n := range c.chain {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if killsPath(pass, lhs, c.base, c.fields) {
					return
				}
			}
		}
	}
	// Walk the ancestor chain innermost-out. For each statement-list
	// container (BlockStmt, CaseClause, CommClause), scan the statements
	// after the one holding the call; then keep ascending only while the
	// container sits in unconditionally-executed context.
	for i := len(c.chain) - 1; i >= 0; i-- {
		var list []ast.Stmt
		var boundary bool // container ends the unconditional region
		switch n := c.chain[i].(type) {
		case *ast.BlockStmt:
			list = n.List
			// A block is unconditional only when its parent is another
			// statement list or a labeled statement; if/for/switch/func
			// bodies end the region after their own statements are scanned.
			// The function body itself (chain root) is where the scan ends.
			if i == 0 {
				boundary = true
			} else {
				switch c.chain[i-1].(type) {
				case *ast.BlockStmt, *ast.LabeledStmt, *ast.CaseClause, *ast.CommClause:
				default:
					boundary = true
				}
			}
		case *ast.CaseClause:
			list = n.Body
			boundary = true // the enclosing switch is a branch point
		case *ast.CommClause:
			list = n.Body
			boundary = true
		default:
			continue
		}
		after := stmtsAfter(list, c.chain[i+1:])
		for _, s := range after {
			pos, used, killed := scanStmt(pass, s, c.base, c.fields)
			if used {
				pass.Reportf(pos, "%s is used after %s consumed it; the reshape invalidates its receiver — use the returned *World",
					pathString(c.base, c.fields), c.method)
				return
			}
			if killed {
				return
			}
		}
		if boundary {
			return
		}
	}
}

// stmtsAfter returns the statements of list that follow the one containing
// the call (identified by the ancestor chain below this container).
func stmtsAfter(list []ast.Stmt, below []ast.Node) []ast.Stmt {
	if len(below) == 0 {
		return nil
	}
	for i, s := range list {
		if s == below[0] {
			return list[i+1:]
		}
	}
	return nil
}

// scanStmt looks through one statement for a use or kill of the tracked
// path. Assignment right-hand sides are scanned as uses before the
// left-hand side can kill: `w = w.Reform(...)` would flag the RHS use only
// if Reform's receiver weren't the consuming call itself, while `w = nw`
// cleanly ends tracking.
func scanStmt(pass *analysis.Pass, s ast.Stmt, base types.Object, fields []string) (token.Pos, bool, bool) {
	if as, ok := s.(*ast.AssignStmt); ok {
		for _, rhs := range as.Rhs {
			if pos, used := findUse(pass, rhs, base, fields); used {
				return pos, true, false
			}
		}
		for _, lhs := range as.Lhs {
			if killsPath(pass, lhs, base, fields) {
				return token.NoPos, false, true
			}
			if pos, used := findUse(pass, lhs, base, fields); used {
				// Writing *through* the consumed value (w.field = x) is
				// still a use of the dead world.
				return pos, true, false
			}
		}
		return token.NoPos, false, false
	}
	if pos, used := findUseInStmt(pass, s, base, fields); used {
		return pos, true, false
	}
	return token.NoPos, false, false
}

// killsPath reports whether lhs reassigns the tracked path or its base.
func killsPath(pass *analysis.Pass, lhs ast.Expr, base types.Object, fields []string) bool {
	b, f, ok := receiverPath(pass, lhs)
	if !ok || b != base {
		return false
	}
	if len(f) > len(fields) {
		return false // writes a deeper field; not a reassignment of the path
	}
	for i := range f {
		if f[i] != fields[i] {
			return false
		}
	}
	return true // assigns the path itself or a prefix (the whole base)
}

// findUseInStmt scans every expression inside s, except nested function
// literals are included deliberately: a closure capturing the dead world
// is exactly the leak the contract forbids.
func findUseInStmt(pass *analysis.Pass, s ast.Stmt, base types.Object, fields []string) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if p, used := findUse(pass, e, base, fields); used {
			pos, found = p, true
			return false
		}
		return true
	})
	return pos, found
}

// findUse reports whether e (or a subexpression) is exactly the tracked
// path.
func findUse(pass *analysis.Pass, e ast.Expr, base types.Object, fields []string) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		b, f, ok := receiverPath(pass, expr)
		if !ok || b != base || len(f) != len(fields) {
			return true
		}
		for i := range f {
			if f[i] != fields[i] {
				return true
			}
		}
		pos, found = expr.Pos(), true
		return false
	})
	return pos, found
}

func pathString(base types.Object, fields []string) string {
	s := base.Name()
	for _, f := range fields {
		s += "." + f
	}
	return s
}
