package riscvmem_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"riscvmem/internal/analyzers/analysis"
)

// censusKeep are the declarations under internal/ that no program reaches
// but that stay on purpose, keyed by "pkgpath.Name", "pkgpath.Recv.Name" or
// a whole package path, each with its reason. An entry the census no longer
// needs fails TestCensus, so the list cannot rot; it holds at most 20.
var censusKeep = map[string]string{
	"riscvmem/internal/analyzers/analysis/analysistest": "test support: the analyzers' fixture driver",
	"riscvmem/internal/faultinject/chaos":               "test support: the chaos suites' misbehaving workloads",
	"riscvmem/internal/leakcheck":                       "test support: the goroutine-leak check of the chaos and cluster tests",

	"riscvmem/internal/faultinject.Set":        "control API: chaos tests arm and clear seams with it",
	"riscvmem/internal/faultinject.Reset":      "control API: chaos tests disarm every seam with it",
	"riscvmem/internal/faultinject.Fired":      "control API: chaos tests assert a seam was reached",
	"riscvmem/internal/faultinject.FailTimes":  "control API: the transient-fault handler",
	"riscvmem/internal/faultinject.AlwaysFail": "control API: the permanent-fault handler",

	"riscvmem/internal/faultinject.ClusterSend": "seam fired only by the cluster tests' FlakyTransport",
	"riscvmem/internal/faultinject.ClusterRecv": "seam fired only by the cluster tests' FlakyTransport",

	"riscvmem/internal/service.Service.SubmitJob": "Go API of POST /v1/jobs (api.txt); the handler submits the plans it caches directly",

	"riscvmem/internal/sim.F64.Store": "per-element pair of F64.Load, which examples/customdevice uses",
	"riscvmem/internal/sim.F32.Load":  "per-element pair of F32.Store, which the blur kernels use",
}

// censusStdMethods are method names that standard-library code calls
// through an interface the loaded code need not mention (fmt, encoding/json,
// errors, net/http).
var censusStdMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText", "ServeHTTP",
}

// TestCensus fails on every package-level declaration under internal/ that
// no program reaches. The roots are the declarations outside internal/
// (cmd/*, bench, examples/*, riscvmem.go), init functions and package-level
// var initializers. A type riscvmem.go aliases is public API, but its
// methods are not roots: a method stays only if a program calls it.
// Reachability, not reference counting: a cluster of declarations that only
// reference each other is as dead as one that nothing references.
func TestCensus(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, d := range census(censusLoad(t, analysis.Config{}, "./..."), "riscvmem") {
		switch {
		case censusKeep[d.key.String()] != "":
			used[d.key.String()] = true
		case censusKeep[d.key.pkg] != "":
			used[d.key.pkg] = true
		default:
			pos := d.pos
			if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
				pos.Filename = rel
			}
			t.Errorf("%s: %s is reached by no program; delete it, or allowlist it in censusKeep with a reason", pos, d.key)
		}
	}
	if len(censusKeep) > 20 {
		t.Errorf("censusKeep has %d entries; the budget is 20", len(censusKeep))
	}
	for entry := range censusKeep {
		if !used[entry] {
			t.Errorf("censusKeep entry %s is no longer needed: every program reaches it, or it is gone", entry)
		}
	}
}

// TestCensusFixture shows the census bites: the GOPATH fixture under
// testdata/src/fixture declares one of each kind of dead declaration, and
// one of each kind of declaration that only looks dead. Thing.Called is
// kept only because cmd/app calls it through the API package's alias.
func TestCensusFixture(t *testing.T) {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	cfg := analysis.Config{Dir: abs, Env: []string{"GOPATH=" + abs, "GO111MODULE=off", "GOFLAGS="}}
	var got []string
	for _, d := range census(censusLoad(t, cfg, "fixture/..."), "fixture") {
		got = append(got, d.key.String())
	}
	want := []string{
		"fixture/internal/lib.DeadExported", // nothing names it
		"fixture/internal/lib.Ping",         // Ping and Pong name only each other
		"fixture/internal/lib.Pong",
		"fixture/internal/lib.TestOnly",     // only lib_test.go calls it
		"fixture/internal/lib.Thing.Public", // aliased by the API package, called by no program
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("census of the fixture:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func censusLoad(t *testing.T, cfg analysis.Config, pattern string) []*analysis.Package {
	t.Helper()
	pkgs, err := analysis.Load(cfg, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			t.Fatalf("loading %s: %s", p.Path, e)
		}
	}
	return pkgs
}

// declKey names a package-level declaration by strings. Each package is
// type-checked against export data, so one object has a different pointer
// in every package that imports it; only its path and names are stable.
type declKey struct{ pkg, recv, name string }

func (k declKey) String() string {
	if k.recv != "" {
		return k.pkg + "." + k.recv + "." + k.name
	}
	return k.pkg + "." + k.name
}

type deadDecl struct {
	key declKey
	pos token.Position
}

// census returns the package-level declarations under module/internal/ that
// no root reaches, sorted by key.
func census(pkgs []*analysis.Package, module string) []deadDecl {
	g := newCensusGraph(pkgs, module)
	reached := g.reach()
	var dead []deadDecl
	for k, pos := range g.declared {
		if !reached[k] {
			dead = append(dead, deadDecl{k, pos})
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key.String() < dead[j].key.String() })
	return dead
}

// censusGraph is one load's declarations and the edges between them.
type censusGraph struct {
	declared map[declKey]token.Position // declarations under internal/
	edges    map[declKey][]declKey      // identifiers a declaration uses
	methods  map[declKey][]declKey      // a named type's declared methods
	roots    []declKey
	// ifaceMethods are the method names some interface in the loaded code,
	// or in the standard library's reflective callers, asks for.
	ifaceMethods map[string]bool
}

func newCensusGraph(pkgs []*analysis.Package, module string) *censusGraph {
	g := &censusGraph{
		declared:     map[declKey]token.Position{},
		edges:        map[declKey][]declKey{},
		methods:      map[declKey][]declKey{},
		ifaceMethods: map[string]bool{},
	}
	for _, name := range censusStdMethods {
		g.ifaceMethods[name] = true
	}
	for _, p := range pkgs {
		internal := strings.HasPrefix(p.Path, module+"/internal/")
		uses := func(n ast.Node) []declKey {
			var out []declKey
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if k, ok := objKey(p.TypesInfo.Uses[id]); ok {
						out = append(out, k)
					}
				}
				return true
			})
			return out
		}
		node := func(k declKey, pos token.Pos, root bool, body ...ast.Node) {
			for _, n := range body {
				g.edges[k] = append(g.edges[k], uses(n)...)
			}
			if internal && k.name != "_" {
				g.declared[k] = p.Fset.Position(pos)
			}
			if root || !internal {
				g.roots = append(g.roots, k)
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					k := declKey{pkg: p.Path, name: d.Name.Name}
					if d.Recv != nil {
						k.recv = recvName(p.TypesInfo.Defs[d.Name].(*types.Func))
						typ := declKey{pkg: p.Path, name: k.recv}
						g.methods[typ] = append(g.methods[typ], k)
					}
					node(k, d.Name.Pos(), d.Recv == nil && d.Name.Name == "init", d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							node(declKey{pkg: p.Path, name: s.Name.Name}, s.Name.Pos(), false, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								node(declKey{pkg: p.Path, name: name.Name}, name.Pos(), name.Name == "_", s)
							}
							if d.Tok == token.VAR {
								// An initializer runs whether or not its
								// variable is read.
								for _, v := range s.Values {
									g.roots = append(g.roots, uses(v)...)
								}
							}
						}
					}
				}
			}
		}
		seen := map[types.Type]bool{}
		for _, tv := range p.TypesInfo.Types {
			g.collectIface(tv.Type, seen)
		}
		for _, obj := range p.TypesInfo.Uses {
			g.collectIface(obj.Type(), seen)
		}
		for _, obj := range p.TypesInfo.Defs {
			if obj != nil {
				g.collectIface(obj.Type(), seen)
			}
		}
	}
	return g
}

// reach walks the graph from the roots. A method keeps its receiver type
// through the receiver in its signature; a type keeps each of its methods
// that some interface asks for by name.
func (g *censusGraph) reach() map[declKey]bool {
	reached := map[declKey]bool{}
	work := append([]declKey(nil), g.roots...)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[k] {
			continue
		}
		reached[k] = true
		work = append(work, g.edges[k]...)
		for _, m := range g.methods[k] {
			if g.ifaceMethods[m.name] {
				work = append(work, m)
			}
		}
	}
	return reached
}

// collectIface records the method names of every interface type reachable
// from t through composite types and signatures. A named type is followed
// only when it names an interface, so one stdlib struct does not drag in
// every interface of the standard library.
func (g *censusGraph) collectIface(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		g.collectIface(types.Unalias(t), seen)
	case *types.Named:
		if _, ok := t.Underlying().(*types.Interface); ok {
			g.collectIface(t.Underlying(), seen)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			g.collectIface(t.TypeArgs().At(i), seen)
		}
	case *types.TypeParam:
		g.collectIface(t.Constraint(), seen)
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			g.ifaceMethods[t.Method(i).Name()] = true
		}
	case *types.Pointer:
		g.collectIface(t.Elem(), seen)
	case *types.Slice:
		g.collectIface(t.Elem(), seen)
	case *types.Array:
		g.collectIface(t.Elem(), seen)
	case *types.Chan:
		g.collectIface(t.Elem(), seen)
	case *types.Map:
		g.collectIface(t.Key(), seen)
		g.collectIface(t.Elem(), seen)
	case *types.Signature:
		g.collectIface(t.Params(), seen)
		g.collectIface(t.Results(), seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			g.collectIface(t.At(i).Type(), seen)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			g.collectIface(t.Field(i).Type(), seen)
		}
	}
}

// objKey keys a package-level object or a concrete method; locals, fields,
// interface methods and universe objects have no key.
func objKey(obj types.Object) (declKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return declKey{}, false
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if o.Type().(*types.Signature).Recv() != nil {
			name := recvName(o)
			return declKey{o.Pkg().Path(), name, o.Name()}, name != ""
		}
		obj = o
	case *types.Var:
		if o.IsField() {
			return declKey{}, false
		}
	case *types.TypeName, *types.Const:
	default:
		return declKey{}, false
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return declKey{}, false
	}
	return declKey{pkg: obj.Pkg().Path(), name: obj.Name()}, true
}

// recvName is the name of a method's receiver type, or "" for an interface
// method.
func recvName(fn *types.Func) string {
	t := types.Unalias(fn.Type().(*types.Signature).Recv().Type())
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		return named.Origin().Obj().Name()
	}
	return ""
}
