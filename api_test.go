package riscvmem_test

import (
	"bytes"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"

	"riscvmem/internal/analyzers/analysis"
)

// TestAPI holds the facade's exported surface to the committed api.txt, in
// the manner of Go's own api/*.txt files: one line per exported name with
// its kind and signature, then one line per exported method reachable
// through each type alias, promoted methods included. A change to the
// surface is an edit to api.txt in the same commit, so review sees it as a
// diff of that file. The census never reads api.txt: what keeps a method
// alive is a program that calls it.
func TestAPI(t *testing.T) {
	pkgs := censusLoad(t, analysis.Config{}, ".")
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want the facade alone", len(pkgs))
	}
	got := apiLines(pkgs[0].Pkg)
	data, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	added, removed := apiDiff(got, want)
	for _, l := range added {
		t.Errorf("+ %s", l)
	}
	for _, l := range removed {
		t.Errorf("- %s", l)
	}
	if len(added)+len(removed) > 0 {
		t.Errorf("the facade's surface differs from api.txt (+ not in the file, - no longer in the facade); edit api.txt to match")
	}
}

// apiLines renders pkg's exported surface, sorted.
func apiLines(pkg *types.Package) []string {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		line := types.ObjectString(obj, qual)
		if c, ok := obj.(*types.Const); ok {
			line += " = " + c.Val().ExactString()
		}
		lines = append(lines, line)
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		t := types.Unalias(tn.Type())
		value := types.NewMethodSet(t)
		mset := types.NewMethodSet(types.NewPointer(t))
		if types.IsInterface(t) {
			mset = value
		}
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj()
			if !m.Exported() {
				continue
			}
			recv := "*" + name
			if value.Lookup(m.Pkg(), m.Name()) != nil {
				recv = name
			}
			var sig bytes.Buffer
			types.WriteSignature(&sig, m.Type().(*types.Signature), qual)
			lines = append(lines, "method ("+recv+") "+m.Name()+sig.String())
		}
	}
	sort.Strings(lines)
	return lines
}

// apiDiff returns the lines of got that want lacks, and the converse.
func apiDiff(got, want []string) (added, removed []string) {
	in := func(lines []string) map[string]bool {
		m := map[string]bool{}
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for _, l := range got {
		if !w[l] {
			added = append(added, l)
		}
	}
	for _, l := range want {
		if !g[l] {
			removed = append(removed, l)
		}
	}
	return added, removed
}
