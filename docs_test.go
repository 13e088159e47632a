package riscvmem_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose backticked references must resolve.
var checkedDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	pathLike = regexp.MustCompile(`^(\./)?[\w.*-]+(/[\w.*-]+)*/?$`)
	fileLike = regexp.MustCompile(`\.(go|md|json|sh|yml|mod)$`)
	qualName = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	series   = regexp.MustCompile(`simd_[a-z_]+`)
	// cmdLine is a ./cmd/NAME invocation and its arguments, up to the end of
	// the inline span or the shell command; quoted arguments may hold
	// separators.
	cmdLine  = regexp.MustCompile("\\./cmd/(\\w+)((?:'[^'\n]*'|\"[^\"\n]*\"|[^`\n|>#&;])*)")
	flagName = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	flagDecl = regexp.MustCompile(`\.(?:String|Int|Int64|Uint|Uint64|Bool|Float64|Duration|\w*Var\([^,]+,\s*)\(?"([\w-]+)"`)
)

// TestDocsNameThingsThatExist fails when a checked document names, in
// backticks, a repository path that does not exist or an exported
// pkg.Identifier that no non-test file of that package declares (pkg being a
// directory under internal/, or riscvmem; lower-case dotted names are
// metrics, JSON fields and fault seams, not Go). Deleting or renaming code
// then fails here until the prose that describes it is brought along.
func TestDocsNameThingsThatExist(t *testing.T) {
	decls := declaredNames(t)
	baseNames := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Name() == ".git" {
			return filepath.SkipDir
		}
		baseNames[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	refs := 0
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(withoutFences(string(raw)), -1) {
			span = strings.TrimSuffix(strings.Trim(span, "`"), "/...") // a package pattern names its directory
			if pathLike.MatchString(span) {
				first, _, nested := strings.Cut(strings.TrimPrefix(span, "./"), "/")
				_, statErr := os.Stat(first)
				switch {
				case nested && statErr == nil:
					// A path from the repository root; * globs.
					refs++
					if m, _ := filepath.Glob(span); len(m) == 0 {
						t.Errorf("%s names the path `%s`, which does not exist", doc, span)
					}
					continue
				case !nested && fileLike.MatchString(span):
					// A bare file name: some file of the repository has it.
					refs++
					if !baseNames[span] {
						t.Errorf("%s names the file `%s`; no file of the repository has that name", doc, span)
					}
					continue
				}
			}
			for _, m := range qualName.FindAllStringSubmatch(span, -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue
				}
				refs++
				if !names[m[2]] {
					t.Errorf("%s names `%s.%s` (in `%s`); no non-test file of package %s declares %s",
						doc, m[1], m[2], span, m[1], m[2])
				}
			}
		}
	}
	t.Logf("%d references checked", refs)
	if refs == 0 {
		t.Error("no references found: the extraction is broken")
	}
}

// TestDocsNameSeriesThatExist fails when README.md or DESIGN.md mentions a
// /metrics series (any simd_… name, fenced or not) that no non-test file
// under internal/ carries as a string literal: the exposition is written
// from literals, so a renamed or deleted series fails here until the prose
// follows.
func TestDocsNameSeriesThatExist(t *testing.T) {
	literals := internalLiterals(t)
	names := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range series.FindAllString(string(raw), -1) {
			names[name] = true
			if !literals[name] {
				t.Errorf("%s names the series %s; no non-test file under internal/ has that string literal", doc, name)
			}
		}
	}
	t.Logf("%d distinct series checked", len(names))
	if len(names) == 0 {
		t.Error("no series found: the extraction is broken")
	}
}

// TestDocsCoverEverySeries is the converse: every simd_… name that is a
// string literal in non-test code under internal/ — the exposition is
// written from exactly those — appears in README.md.
func TestDocsCoverEverySeries(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range series.FindAllString(string(readme), -1) {
		documented[name] = true
	}
	for lit := range internalLiterals(t) {
		if lit != "" && series.FindString(lit) == lit && !documented[lit] {
			t.Errorf("README.md does not mention the series %s", lit)
		}
	}
}

// TestScrapedSeriesStayUnlabelled pins the four series bench reads off
// /metrics by bare name: each is on the golden pages of the roles that
// expose it, as one sample with no label set.
func TestScrapedSeriesStayUnlabelled(t *testing.T) {
	for name, roles := range map[string][]string{
		"simd_queue_depth":                     {"standalone", "coordinator", "worker"},
		"simd_cluster_cells_requeued_total":    {"coordinator"},
		"simd_cluster_workers_lost_total":      {"coordinator"},
		"simd_cluster_cells_quarantined_total": {"coordinator"},
	} {
		sample := regexp.MustCompile(`(?m)^` + name + ` [0-9.e+-]+$`)
		for _, role := range roles {
			page, err := os.ReadFile("internal/cluster/testdata/metrics_" + role + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			if n := len(sample.FindAll(page, -1)); n != 1 || strings.Contains(string(page), name+"{") {
				t.Errorf("metrics_%s.txt: %d unlabelled samples of %s, want exactly 1 and none labelled", role, n, name)
			}
		}
	}
}

// TestDocsUseFlagsThatExist fails when a checked document shows a
// ./cmd/NAME command line (inline or fenced) with a -flag that no
// flag.String("flag", …)-style or flag.Var(…, "flag", …)-style call in
// cmd/NAME/*.go registers.
func TestDocsUseFlagsThatExist(t *testing.T) {
	lines := 0
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(raw), "\\\n", " ") // shell line continuations
		for _, m := range cmdLine.FindAllStringSubmatch(joined, -1) {
			lines++
			registered := map[string]bool{}
			sources, _ := filepath.Glob(filepath.Join("cmd", m[1], "*.go"))
			for _, file := range sources {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, reg := range flagDecl.FindAllSubmatch(src, -1) {
					registered[string(reg[1])] = true
				}
			}
			for _, tok := range strings.Fields(m[2]) {
				if f := flagName.FindStringSubmatch(tok); f != nil && !registered[f[1]] {
					t.Errorf("%s gives ./cmd/%s the flag -%s, which it does not register", doc, m[1], f[1])
				}
			}
		}
	}
	t.Logf("%d command lines checked", lines)
	if lines == 0 {
		t.Error("no command lines found: the extraction is broken")
	}
}

// withoutFences drops fenced code blocks, whose contents are shell and Go
// rather than prose and whose fences would mispair the inline spans.
func withoutFences(doc string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// declaredNames maps each package name — riscvmem and every directory under
// internal/, by its base name — to the identifiers its non-test files
// declare: top-level funcs, types, vars and consts, methods, struct fields
// and interface methods.
func declaredNames(t *testing.T) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	add := func(pkg, dir string) {
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, f := range parseNonTest(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					names[n.Name.Name] = true
					return false
				case *ast.TypeSpec:
					names[n.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range n.Names {
						names[id.Name] = true
					}
				case *ast.Field: // struct fields, interface methods
					for _, id := range n.Names {
						names[id.Name] = true
					}
				}
				return true
			})
		}
	}
	add("riscvmem", ".")
	for _, dir := range internalDirs(t) {
		add(filepath.Base(dir), dir)
	}
	return decls
}

// internalLiterals is the set of string literals in non-test code under
// internal/.
func internalLiterals(t *testing.T) map[string]bool {
	literals := map[string]bool{}
	for _, dir := range internalDirs(t) {
		for _, f := range parseNonTest(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						literals[v] = true
					}
				}
				return true
			})
		}
	}
	return literals
}

// internalDirs lists every directory under internal/, testdata excluded.
func internalDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() && path != "internal" {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// parseNonTest parses the non-test Go files directly in dir.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	var parsed []*ast.File
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	return parsed
}
