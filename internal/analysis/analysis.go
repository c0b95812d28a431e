// Package analysis is a small go/analysis-style framework built on the
// standard library alone (go/ast, go/parser, go/types — no
// golang.org/x/tools, no go/packages). It loads the module's packages
// from source, type-checks them against a source-parsed standard
// library, runs registered analyzers, and filters findings through
// //paslint:allow suppression directives.
//
// The framework exists because the PAS reproduction's validity rests on
// invariants the compiler cannot see: bit-determinism of the simulated
// LLM stack under a seed, context propagation through the serving hot
// path, lock discipline around slow calls, error-wrapping across the
// resilience classification boundary, and HTTP body hygiene. paslint
// (cmd/paslint) turns those from review-time folklore into
// machine-checked rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one named invariant check.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in
	// //paslint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the rule enforces.
	Doc string
	// Run applies the rule to one package, reporting findings through
	// pass.Reportf. A returned error aborts the whole lint run (it means
	// the analyzer itself failed, not that the code has findings).
	Run func(*Pass) error
	// RunModule, set instead of Run, makes the rule whole-module: it is
	// applied once to every loaded package together, for invariants no
	// single package can decide ("nothing outside this package uses
	// it"). Its answer is only as whole as the load: lint ./... for it.
	RunModule func(*ModulePass) error
}

// A ModulePass carries a whole-module analyzer's view of every loaded
// package. All packages share one FileSet and one type universe, so an
// object declared in one package is the same types.Object in another's
// Info.Uses.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test source files, with
	// comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression/object maps for Files.
	Info *types.Info
	// Path is the package's import path (e.g. "repro/internal/simllm").
	Path string
	// Module is the module path the package was loaded under.
	Module string
	// Directives are every well-formed paslint directive in Files, in
	// source order. Allow directives are applied by the runner after the
	// analyzers report; rules that define their own markers (hotpathalloc
	// and the hotpath verb) read them here.
	Directives []Directive

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to a rule.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}
