// Package faultseam verifies that fault-injection seams stay zero-cost in
// untagged builds and honest in tagged ones.
//
// The faultinject package is a build-tag pair: every build sees Fire (a
// no-op stub without the tag) and the Point constants; the handler registry
// (Set, Clear, Reset, Fired, Handler, FailTimes, AlwaysFail) exists only
// under `-tags faultinject`. The compiler already refuses tag-only symbols
// in untagged builds — but only in the build that's actually run, and a
// `go vet -tags faultinject` or test-tagged tree compiles fine while
// silently committing an ordinary file to the chaos-only API. The analyzer pins the discipline structurally:
//
//   - tag-only API referenced from a file without a faultinject build
//     constraint is flagged, whatever tags the analysis itself ran with;
//   - a Fire call whose error result is discarded is flagged — an
//     unconsulted seam injects nothing and silently stops guarding its
//     invariant;
//   - a Fire argument that is not a declared Point constant is flagged —
//     ad-hoc string points dodge the deliberate seam registry in
//     faultinject.go.
//
// The check keys on any imported package *named* faultinject that exports
// Fire and Point, so fixtures can model the API without the repo path.
package faultseam

import (
	"go/ast"
	"go/build/constraint"
	"go/types"
	"strings"

	"riscvmem/internal/analyzers/analysis"
)

// Analyzer is the fault-seam discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "faultseam",
	Doc: "restrict faultinject usage to the always-built API (Fire/Point " +
		"constants) outside //go:build faultinject files; require Fire errors to be " +
		"consulted and Fire points to be declared constants",
	Run: run,
}

// alwaysBuilt are the faultinject symbols present in every build.
var alwaysBuilt = map[string]bool{
	"Fire": true, "Point": true,
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
		tagged := hasFaultinjectTag(f)
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
			case *ast.Ident:
				obj := pass.TypesInfo.Uses[n]
				if obj == nil || obj.Pkg() != fi {
					return true
				}
				if _, isConst := obj.(*types.Const); isConst || alwaysBuilt[obj.Name()] {
					return true
				}
				if !tagged {
					pass.Reportf(n.Pos(),
						"faultinject.%s exists only under -tags faultinject; reference it from a //go:build faultinject file so the untagged build stays zero-cost", obj.Name())
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

// hasFaultinjectTag reports whether the file carries a build constraint
// requiring the faultinject tag.
func hasFaultinjectTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			// The file is gated on the faultinject tag iff flipping that
			// one tag flips the constraint (other tags held constant), so
			// a //go:build linux file is not mistaken for a chaos file.
			with := expr.Eval(func(tag string) bool { return true })
			without := expr.Eval(func(tag string) bool { return tag != "faultinject" })
			if with && !without {
				return true
			}
		}
	}
	return false
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
