// Package ctxerr flags identity comparisons (== / != / switch-case)
// against context.Canceled, context.DeadlineExceeded, and exported Err*
// sentinel values.
//
// This codebase wraps errors aggressively — per-job errors carry the
// workload and device ("stream/TRIAD on MangoPi: context canceled"),
// admission errors carry retry hints, batch errors arrive joined — so a
// context or sentinel error almost never reaches a comparison bare. A
// real PR 6 bug: Service.Batch collapsed cancellation tails with
// `err == context.Canceled`, which silently stopped collapsing the moment
// the runner started wrapping per-job errors. errors.Is is the contract;
// identity comparison is the bug waiting for the next wrap.
//
// The rare spot where identity *is* the semantics — run.JoinErrors
// collapses only bare sentinels precisely to keep wrapped, individually
// meaningful errors un-collapsed — documents itself with
// //simlint:allow ctxerr and a reason.
package ctxerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"riscvmem/internal/analyzers/analysis"
)

// Analyzer is the sentinel-comparison check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxerr",
	Doc: "flag ==/!=/switch-case comparisons against context.Canceled, " +
		"context.DeadlineExceeded and Err* sentinels; use errors.Is",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkComparison(pass, n.Pos(), n.X, n.Y, n.Op.String())
				}
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkComparison(pass *analysis.Pass, pos token.Pos, x, y ast.Expr, op string) {
	for _, pair := range [2][2]ast.Expr{{x, y}, {y, x}} {
		sentinel, other := pair[0], pair[1]
		name, ok := sentinelName(pass, sentinel)
		if !ok {
			continue
		}
		// The other side must itself be an error (not, say, a shadowing
		// comparison of two sentinels' addresses in unrelated code).
		if t := pass.TypesInfo.TypeOf(other); t == nil || !isErrorType(t) {
			continue
		}
		pass.Reportf(pos,
			"err %s %s compares error identity and misses wrapped errors; use errors.Is(err, %s)", op, name, name)
		return
	}
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	if t := pass.TypesInfo.TypeOf(sw.Tag); t == nil || !isErrorType(t) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if name, ok := sentinelName(pass, e); ok {
				pass.Reportf(e.Pos(),
					"switch-case %s compares error identity and misses wrapped errors; use errors.Is(err, %s)", name, name)
			}
		}
	}
}

// sentinelName reports whether the expression denotes a sentinel error —
// a context package sentinel or a package-level exported Err* variable of
// type error — and returns its display name.
func sentinelName(pass *analysis.Pass, e ast.Expr) (string, bool) {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				obj = pass.TypesInfo.Uses[e.Sel]
			}
		}
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	// Package-level only: locals named errFoo are not sentinels.
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !isErrorType(v.Type()) {
		return "", false
	}
	if v.Pkg().Path() == "context" && (v.Name() == "Canceled" || v.Name() == "DeadlineExceeded") {
		return "context." + v.Name(), true
	}
	if strings.HasPrefix(v.Name(), "Err") && len(v.Name()) > 3 {
		if v.Pkg() == pass.Pkg {
			return v.Name(), true
		}
		return v.Pkg().Name() + "." + v.Name(), true
	}
	return "", false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
