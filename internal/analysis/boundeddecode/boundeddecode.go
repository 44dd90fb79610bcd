// Package boundeddecode enforces PR 2's hostile-frame hardening: on
// network-reachable paths (node, mux, wireproto), a
// decoder that has a size-bounded sibling must be called through it.
//
// An unbounded decode of an attacker-supplied frame is an allocation
// bomb — the length words inside the frame, not the frame size, drive
// the allocations. The homenc wire layer therefore decodes only through
// ScanVectorBound / ScanIntBound / UnmarshalIntBound, with explicit
// caps. This analyzer flags any call to an Unmarshal* function
// or method from a network-reachable package when the callee's package
// or method set also exports the same name with a Bound suffix — the
// caller picked the unbounded variant where a bounded one exists.
//
// The structural scans that replaced eager decoding on the exchange
// legs (homenc.ScanVectorBound and friends: bounds checked, nothing
// built) are the same entry point under another name, so Scan* calls
// fall under the same rule.
//
// Escape hatch: `//lint:unbounded <reason>` for call sites whose input
// is provably not attacker-controlled (e.g. decoding a local key file).
package boundeddecode

import (
	"go/ast"
	"go/types"
	"strings"

	"chiaroscuro/internal/analysis"
)

// Analyzer is the boundeddecode analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "boundeddecode",
	Doc:  "flags unbounded Unmarshal/Scan calls on network-reachable paths where a ...Bound variant exists",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathIn(pass.Pkg.Path(), analysis.NetworkReachablePackages...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
			if !ok {
				return true
			}
			name := fn.Name()
			if !(strings.HasPrefix(name, "Unmarshal") || strings.HasPrefix(name, "Scan")) || strings.HasSuffix(name, "Bound") {
				return true
			}
			if bounded := boundSibling(pass, sel, fn); bounded != "" {
				if !pass.Exempt("unbounded", call.Pos()) {
					pass.Reportf(call.Pos(), "unbounded %s on a network-reachable path; use %s with explicit caps (hostile frames drive allocations by their internal length words)", name, bounded)
				}
			}
			return true
		})
	}
	return nil
}

// boundSibling returns the name of the Bound variant of the callee if
// one exists in the same method set (for methods) or package scope (for
// functions), or "" if the callee has no bounded sibling.
func boundSibling(pass *analysis.Pass, sel *ast.SelectorExpr, fn *types.Func) string {
	want := fn.Name() + "Bound"
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		// Method: look the sibling up in the receiver's method set.
		t := recv.Type()
		ms := types.NewMethodSet(t)
		if ms.Lookup(fn.Pkg(), want) != nil {
			return want
		}
		// The receiver in the call may be addressable where the method
		// set above used the value type; check the pointer set too.
		if _, ok := t.(*types.Pointer); !ok {
			if types.NewMethodSet(types.NewPointer(t)).Lookup(fn.Pkg(), want) != nil {
				return want
			}
		}
		return ""
	}
	// Package-level function: the sibling lives in the callee's scope.
	if fn.Pkg() != nil && fn.Pkg().Scope().Lookup(want) != nil {
		if id, ok := sel.X.(*ast.Ident); ok {
			if _, isPkg := pass.ObjectOf(id).(*types.PkgName); isPkg {
				return id.Name + "." + want
			}
		}
		return want
	}
	return ""
}
