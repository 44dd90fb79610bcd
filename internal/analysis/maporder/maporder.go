// Package maporder flags `range` over a map in the deterministic
// protocol packages (eesum, core, sim, node, homenc, gossip).
//
// Go randomizes map iteration order per run, so any map-ordered loop
// whose effects reach protocol state — merged sums, partial-decryption
// truncation, wire encodings, schedules — breaks the bit-identical
// release guarantee. PR 3 shipped two exactly such bugs on the
// decryption path (DecryptionLatency.adopt and eesum.CopyParts
// truncated in map order); this analyzer makes the class unshippable.
//
// Two forms are allowed:
//
//   - the collect-keys idiom: a loop whose whole body appends the range
//     key to a slice that the same function later sorts;
//   - an explicit `//lint:orderfree <reason>` annotation on the loop
//     (same line or the line above) for loops that are genuinely
//     order-insensitive (pure set/count/lookup construction).
package maporder

import (
	"go/ast"
	"go/types"

	"chiaroscuro/internal/analysis"
)

// Analyzer is the maporder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags range over a map in deterministic protocol packages unless keys are collected and sorted or the loop is annotated //lint:orderfree",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathIn(pass.Pkg.Path(), analysis.DeterministicPackages...) {
		return nil
	}
	for _, f := range pass.Files {
		// All function bodies in the file, so each range loop can find
		// its innermost enclosing function for the sorted-keys check.
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				checkRange(pass, rs, innermost(bodies, rs))
			}
			return true
		})
	}
	return nil
}

// innermost returns the smallest function body containing at.
func innermost(bodies []*ast.BlockStmt, at ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= at.Pos() && at.End() <= b.End() {
			if best == nil || b.Pos() >= best.Pos() {
				best = b
			}
		}
	}
	return best
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if pass.Exempt("orderfree", rs.For) {
		return
	}
	if fnBody != nil && isCollectKeysIdiom(pass, rs, fnBody) {
		return
	}
	pass.Reportf(rs.For, "range over map iterates in nondeterministic order in a deterministic protocol package; collect and sort the keys, or annotate //lint:orderfree with a reason")
}

// isCollectKeysIdiom recognizes
//
//	for k := range m { ks = append(ks, k) }
//	... sort.Slice(ks, ...) / slices.Sort(ks) ...
//
// the loop body must be exactly the append of the range key, and the
// enclosing function must sort the same slice after the loop.
func isCollectKeysIdiom(pass *analysis.Pass, rs *ast.RangeStmt, fn *ast.BlockStmt) bool {
	if rs.Value != nil && !isBlank(rs.Value) {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.ObjectOf(src) != pass.ObjectOf(dst) {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || pass.ObjectOf(arg) != pass.ObjectOf(key) {
		return false
	}
	// The collected slice must be sorted after the loop.
	slice := pass.ObjectOf(dst)
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.ObjectOf(pkgID).(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		first, ok := call.Args[0].(*ast.Ident)
		if ok && pass.ObjectOf(first) == slice {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
