package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
)

// Run applies every analyzer to every package — whole-module analyzers
// once to all of them — filters findings through //paslint:allow
// directives, and returns the surviving diagnostics sorted by position.
// Malformed directives are themselves findings (rule "paslint") and
// cannot be suppressed — a suppression the author believes is active
// but is not would otherwise rot silently — and so is an allow of a
// rule that ran and found nothing for it to suppress.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunMatched(pkgs, nil, analyzers)
}

// RunMatched is Run over a whole-module load of which only the packages
// at the import paths in matched are linted (nil means all of them):
// per-package analyzers run on those alone, and whole-module analyzers
// see every package but keep only their findings inside matched ones.
func RunMatched(pkgs []*Package, matched []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags, out []Diagnostic
	var directives []Directive
	linted := make(map[string]bool) // source dirs of the matched packages
	for _, pkg := range pkgs {
		if matched != nil && !slices.Contains(matched, pkg.Path) {
			continue
		}
		linted[pkg.Dir] = true
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				Path:       pkg.Path,
				Module:     pkg.Module,
				Directives: pkg.directives,
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: running %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		directives = append(directives, pkg.directives...)
		out = append(out, pkg.badDirs...)
	}
	if len(pkgs) > 0 {
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			pass := &ModulePass{Analyzer: a, Fset: pkgs[0].Fset, Packages: pkgs, diags: &diags}
			if err := a.RunModule(pass); err != nil {
				return nil, fmt.Errorf("analysis: running %s: %w", a.Name, err)
			}
		}
	}
	used := make([]map[string]bool, len(directives)) // rules each directive silenced
	for _, d := range diags {
		if linted[filepath.Dir(d.Pos.Filename)] && !suppressed(directives, used, d) {
			out = append(out, d)
		}
	}
	for i, dir := range directives {
		for _, r := range dir.Rules {
			ran := slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == r })
			if ran && !used[i][r] {
				out = append(out, Diagnostic{
					Pos:     token.Position{Filename: dir.File, Line: dir.Line, Column: 1},
					Rule:    "paslint",
					Message: fmt.Sprintf("paslint:allow %s suppresses nothing; delete it", r),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out, nil
}

// suppressed reports whether an allow directive covers d, marking in
// used every directive that does. Directives carry their file, so one
// list serves every package.
func suppressed(ds []Directive, used []map[string]bool, d Diagnostic) bool {
	hit := false
	for i, dir := range ds {
		if dir.File != "" && dir.File != d.Pos.Filename {
			continue
		}
		if dir.covers(d.Rule, d.Pos.Line) {
			if used[i] == nil {
				used[i] = make(map[string]bool)
			}
			used[i][d.Rule] = true
			hit = true
		}
	}
	return hit
}
