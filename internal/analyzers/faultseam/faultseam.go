// Package faultseam verifies that fault-injection seams stay honest.
//
// A seam is a faultinject.Fire call on a production path. Two mistakes
// compile fine and silently stop a seam from guarding anything:
//
//   - a Fire call whose error result is discarded is flagged — an
//     unconsulted seam injects nothing and stops guarding its invariant;
//   - a Fire argument that is not a declared Point constant is flagged —
//     ad-hoc string points dodge the deliberate seam registry in
//     faultinject.go.
//
// The check keys on any imported package *named* faultinject that exports
// Fire and Point, so fixtures can model the API without the repo path.
package faultseam

import (
	"go/ast"
	"go/types"
	"strings"

	"riscvmem/internal/analyzers/analysis"
)

// Analyzer is the fault-seam discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "faultseam",
	Doc: "require faultinject.Fire errors to be consulted and Fire points to " +
		"be declared Point constants",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// The defining package and its test files police themselves.
	if pass.Pkg != nil && pass.Pkg.Name() == "faultinject" {
		return nil
	}
	for _, f := range pass.Files {
		fi := faultinjectImport(pass, f)
		if fi == nil {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && isFireCall(pass, call, fi) {
					pass.Reportf(call.Pos(),
						"faultinject.Fire's error is discarded; a seam that ignores the injected error guards nothing")
				}
			case *ast.CallExpr:
				if isFireCall(pass, n, fi) {
					checkFireArg(pass, n, fi)
				}
			}
			return true
		})
	}
	return nil
}

// faultinjectImport returns the imported faultinject package used by the
// file, identified structurally: its name is faultinject and it exports
// Fire and Point.
func faultinjectImport(pass *analysis.Pass, f *ast.File) *types.Package {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		for _, dep := range pass.Pkg.Imports() {
			if dep.Path() != path || dep.Name() != "faultinject" {
				continue
			}
			scope := dep.Scope()
			if scope.Lookup("Fire") != nil && scope.Lookup("Point") != nil {
				return dep
			}
		}
	}
	return nil
}

func isFireCall(pass *analysis.Pass, call *ast.CallExpr, fi *types.Package) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() == fi && obj.Name() == "Fire"
}

// checkFireArg requires the fired point to be a declared constant of the
// faultinject package (not an ad-hoc conversion or variable).
func checkFireArg(pass *analysis.Pass, call *ast.CallExpr, fi *types.Package) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	var obj types.Object
	switch a := arg.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[a]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[a.Sel]
	}
	if c, ok := obj.(*types.Const); ok && c.Pkg() == fi {
		return
	}
	pass.Reportf(arg.Pos(),
		"Fire takes a Point constant declared in the faultinject package; ad-hoc points dodge the deliberate seam registry")
}
