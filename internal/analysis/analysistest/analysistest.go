// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against // want expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib-only
// framework.
//
// A fixture is a directory containing one package. Lines that should be
// flagged carry a trailing expectation comment:
//
//	time.Now() // want `time\.Now in deterministic package`
//
// The backquoted string is a regexp matched against the diagnostic
// message; several expectations may sit on one line, and one may trail
// a //paslint: directive when the finding is about the directive. Lines
// with //paslint:allow directives exercise suppression: a suppressed
// finding must NOT be reported, so such lines simply carry no want
// comment.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Shared across fixture loads so the stdlib closure (context, net/http,
// sync, ...) is type-checked once per test binary, not once per
// fixture.
var (
	sharedFset     = token.NewFileSet()
	sharedImporter = analysis.NewSourceImporter(sharedFset)
)

// Run loads the fixture package rooted at dir, applies the analyzers,
// and compares findings with the fixture's want comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkgs, err := analysis.Load(analysis.Config{
		Fset:     sharedFset,
		Dir:      abs,
		Module:   filepath.Base(abs),
		Tests:    true,
		Importer: sharedImporter,
	}, "./...")
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("analysistest: running: %v", err)
	}
	wants := collectWants(t, pkgs)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) && (w.rule == "" || w.rule == d.Rule) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic %s:%d: %s: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	rule string // optional "rule:" prefix in the expectation
	re   *regexp.Regexp
}

// wantRx pulls the backquoted patterns out of a want comment.
var wantRx = regexp.MustCompile("`([^`]*)`")

// collectWants parses // want comments from the loaded fixture files.
func collectWants(t *testing.T, pkgs []*analysis.Package) []want {
	t.Helper()
	var wants []want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok && strings.HasPrefix(c.Text, "//paslint:") {
						// A finding about a directive sits on its own
						// line, so its want trails the directive.
						_, text, ok = strings.Cut(c.Text, " // want ")
					}
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					pats := wantRx.FindAllStringSubmatch(text, -1)
					if len(pats) == 0 {
						t.Fatalf("%s:%d: malformed want comment (need backquoted pattern): %s", pos.Filename, pos.Line, c.Text)
					}
					for _, m := range pats {
						pat, rule := m[1], ""
						if i := strings.Index(pat, "::"); i > 0 {
							rule, pat = pat[:i], pat[i+2:]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, want{file: pos.Filename, line: pos.Line, rule: rule, re: re})
					}
				}
			}
		}
	}
	return wants
}

// Fixture returns the conventional fixture path testdata/src/<name>
// relative to the test's working directory.
func Fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}
