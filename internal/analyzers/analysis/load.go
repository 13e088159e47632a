package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Config controls a Load.
type Config struct {
	// Dir is the working directory the go command runs in ("" = cwd).
	Dir string
	// Env entries are appended to the current environment (for fixture
	// loads: GOPATH=<testdata>, GO111MODULE=off).
	Env []string
}

// Package is one loaded, parsed, type-checked package.
type Package struct {
	Path      string
	Name      string
	Dir       string
	GoFiles   []string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Errors collects everything that went wrong loading this package:
	// list errors, parse errors, type errors. A package with errors is
	// still returned (with whatever was salvaged) so the caller can
	// print precise failures.
	Errors []string
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists, parses, and type-checks the packages matching the patterns.
//
// It shells out to `go list -e -export -deps -json`, which builds export
// data for every dependency through the ordinary build cache; target
// packages (the non-DepOnly ones) are then parsed from source and
// type-checked against that export data via the compiler importer. This
// is the same architecture as go/packages' LoadAllSyntax for the target
// set, with dependencies resolved at the type level only — exactly what
// single-package analyzers need, with zero dependencies beyond the go
// command itself.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Env = append(os.Environ(), cfg.Env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.Bytes())
	}

	index := map[string]*listPackage{}
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %w", patterns, err)
		}
		index[lp.ImportPath] = lp
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	// One compiler-export-data importer shared across targets: lookup
	// resolves an import path to the export file `go list -export` built.
	lookup := func(path string) (io.ReadCloser, error) {
		lp, ok := index[path]
		if !ok || lp.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(lp.Export)
	}
	base := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, lp := range targets {
		pkg := &Package{
			Path: lp.ImportPath,
			Name: lp.Name,
			Dir:  lp.Dir,
			Fset: fset,
		}
		out = append(out, pkg)
		if lp.Error != nil {
			pkg.Errors = append(pkg.Errors, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			pkg.Errors = append(pkg.Errors, fmt.Sprintf("%s: cgo packages are not analyzable", lp.ImportPath))
			continue
		}
		for _, name := range lp.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(lp.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				pkg.Errors = append(pkg.Errors, err.Error())
				continue
			}
			pkg.Files = append(pkg.Files, f)
			pkg.GoFiles = append(pkg.GoFiles, path)
		}
		if len(pkg.Files) == 0 {
			continue
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{
			Importer: &mapImporter{base: base, m: lp.ImportMap},
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
			Error: func(err error) {
				pkg.Errors = append(pkg.Errors, err.Error())
			},
		}
		// Check always returns a (possibly incomplete) package; errors
		// were already collected through conf.Error.
		pkg.Pkg, _ = conf.Check(lp.ImportPath, fset, pkg.Files, info)
		pkg.TypesInfo = info
	}
	return out, nil
}

// mapImporter applies one package's ImportMap (vendoring indirection)
// before delegating to the shared export-data importer.
type mapImporter struct {
	base types.Importer
	m    map[string]string
}

func (mi *mapImporter) Import(path string) (*types.Package, error) {
	if real, ok := mi.m[path]; ok {
		path = real
	}
	return mi.base.Import(path)
}
