// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations — the same fixture
// convention as golang.org/x/tools/go/analysis/analysistest, implemented
// on the stdlib-only framework in internal/analyzers/analysis.
//
// Fixtures live under <analyzer>/testdata/src/<pkg>/ and are loaded in
// GOPATH mode (GOPATH=testdata, modules off), so fixture packages may
// import each other by bare path ("faultinject") without touching the
// repo module. A line that should be flagged carries a comment:
//
//	x := now()  // want `regexp matching the message`
//
// Multiple expectations on one line each get their own backquoted or
// double-quoted regexp. Every diagnostic must be wanted and every want
// must be matched, so fixtures pin both the positives and the allowed
// near-misses (lines with no want must stay clean).
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"riscvmem/internal/analyzers/analysis"
)

// Run loads the fixture packages (paths relative to testdata/src) and
// checks the analyzer's diagnostics against their want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	abs, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatalf("resolving %s: %v", testdata, err)
	}
	cfg := analysis.Config{
		Dir: abs,
		Env: []string{
			"GOPATH=" + abs,
			"GO111MODULE=off",
			"GOFLAGS=",
		},
	}
	loaded, err := analysis.Load(cfg, pkgs...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", pkgs, err)
	}
	diags, err := analysis.Run(loaded, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, loaded)
	for _, d := range diags {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		if !wants.match(key, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re.String())
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

type wantMap map[posKey][]*want

func (m wantMap) match(key posKey, msg string) bool {
	for _, w := range m[key] {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRE extracts the quoted regexps of one want comment, in either
// quoting:
//
//	// want "re1" `re2`   →   [re1 re2]
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, pkgs []*analysis.Package) wantMap {
	t.Helper()
	wants := wantMap{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					collectWantComment(t, pkg.Fset, c, wants)
				}
			}
		}
	}
	return wants
}

func collectWantComment(t *testing.T, fset *token.FileSet, c *ast.Comment, wants wantMap) {
	t.Helper()
	// Only comments of the exact form "// want <patterns>" are
	// expectations — the word "want" inside ordinary prose is not.
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return
	}
	pos := fset.Position(c.Pos())
	key := posKey{pos.Filename, pos.Line}
	for _, quoted := range wantRE.FindAllString(rest, -1) {
		var pattern string
		if strings.HasPrefix(quoted, "`") {
			pattern = strings.Trim(quoted, "`")
		} else {
			var err error
			pattern, err = strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("%s: bad want pattern %s: %v", pos, quoted, err)
			}
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
		}
		wants[key] = append(wants[key], &want{re: re})
	}
	if len(wants[key]) == 0 {
		t.Fatalf("%s: want comment with no quoted regexp: %s", pos, text)
	}
}
