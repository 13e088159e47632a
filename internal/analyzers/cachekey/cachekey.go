// Package cachekey statically checks the completeness of canonical
// cache-key encodings.
//
// Every built-in kernel's memoization identity is the canonical
// spec-grammar encoding of its Config (run's streamKey / transposeKey /
// blurKey): a function that must name *every* Config field, because a
// field missing from the encoding makes two different configurations
// share one cache entry — the memo store would silently serve the wrong
// result, across processes and forever (the disk tier outlives the bug).
// PR 4 guarded this at runtime with a reflection test counting fields;
// this analyzer makes the same contract a compile-time lint.
//
// An encoder opts in with //simlint:cachekey in its doc comment. The
// analyzer then requires every exported field of the function's struct
// parameter to be read (as a selector) somewhere in its body. To keep the
// contract closed, a function that *looks* like a canonical encoder —
// named *Key, a single named-struct parameter, a single string result —
// but lacks the directive is flagged too, so a new kernel cannot ship an
// unchecked encoding by accident.
package cachekey

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"riscvmem/internal/analyzers/analysis"
)

// Analyzer is the cache-key completeness check.
var Analyzer = &analysis.Analyzer{
	Name: "cachekey",
	Doc: "require canonical cache-key encoders (//simlint:cachekey) to read every " +
		"exported field of their Config parameter, and encoder-shaped functions to carry the directive",
	Run: run,
}

// Directive marks a function as a canonical encoder.
const Directive = "cachekey"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.FuncHasDirective(fn, Directive) {
				checkEncoder(pass, fn)
			} else if looksLikeEncoder(pass, fn) {
				pass.Reportf(fn.Name.Pos(),
					"%s looks like a canonical cache-key encoder but has no //simlint:cachekey directive; add it so field completeness is checked", fn.Name.Name)
			}
		}
	}
	return nil
}

// checkEncoder verifies that the function reads every exported field of
// its struct parameter.
func checkEncoder(pass *analysis.Pass, fn *ast.FuncDecl) {
	paramName, st := structParam(pass, fn)
	if st == nil {
		pass.Reportf(fn.Name.Pos(),
			"%s carries //simlint:cachekey but has no named-struct parameter to check", fn.Name.Name)
		return
	}
	// The canonical field objects of the struct type: Selections resolve
	// to these same *types.Var instances wherever the field is read.
	fields := map[*types.Var]bool{} // true once referenced
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Exported() {
			fields[f] = false
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if v, tracked := fields[s.Obj().(*types.Var)]; tracked && !v {
			fields[s.Obj().(*types.Var)] = true
		}
		return true
	})
	var missing []string
	for f, seen := range fields {
		if !seen {
			missing = append(missing, f.Name())
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(fn.Name.Pos(),
			"canonical encoding %s does not name %s field(s) %s: two configs differing there would share one cache key",
			fn.Name.Name, paramName, strings.Join(missing, ", "))
	}
}

// structParam finds the function's first parameter whose type is a named
// struct (directly or behind one pointer) and returns its type name and
// underlying struct.
func structParam(pass *analysis.Pass, fn *ast.FuncDecl) (string, *types.Struct) {
	if fn.Type.Params == nil {
		return "", nil
	}
	for _, field := range fn.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			return named.Obj().Name(), st
		}
	}
	return "", nil
}

// looksLikeEncoder matches the canonical-encoder shape: a function (not a
// method) named *Key with exactly one parameter (a named struct) and one
// string result (run.streamKey's shape — Config in, key string out).
func looksLikeEncoder(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if fn.Recv != nil || !strings.HasSuffix(name, "Key") || name == "Key" {
		return false
	}
	if fn.Type.Params == nil || len(fn.Type.Params.List) != 1 || len(fn.Type.Params.List[0].Names) > 1 {
		return false
	}
	if _, st := structParam(pass, fn); st == nil {
		return false
	}
	if fn.Type.Results == nil || len(fn.Type.Results.List) != 1 || len(fn.Type.Results.List[0].Names) > 1 {
		return false
	}
	rt := pass.TypesInfo.TypeOf(fn.Type.Results.List[0].Type)
	return rt != nil && types.Identical(rt, types.Typ[types.String])
}
