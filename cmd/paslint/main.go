// Command paslint runs the PAS static-analysis suite (see
// internal/analysis and internal/analysis/rules) over the module.
//
// Usage:
//
//	paslint [-rules determinism,errwrap] [-json | -sarif] [-list] [packages]
//
// Patterns follow the go tool's shape: ./... (default), ./dir, ./dir/...
// Exit status: 0 clean, 1 findings, 2 operational failure (bad flags,
// unparseable source, type errors).
//
// -json emits the framework's diagnostic array unchanged; -sarif emits
// a SARIF 2.1.0 log (see sarif.go) for code-scanning ingestion. The
// two are mutually exclusive.
//
// Findings are suppressed — one line at a time, with a mandatory reason
// — by directives of the form:
//
//	//paslint:allow <rule>[,<rule>] <reason>
//
// placed at the end of the offending line or alone on the line above.
// Malformed directives are findings themselves and cannot be
// suppressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/analysis"
	"repro/internal/analysis/rules"
)

// paslintVersion is reported in SARIF driver metadata; bumped when the
// rule set or a rule's semantics change.
const paslintVersion = "2.1.0"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ruleList = fs.String("rules", "", "comma-separated rule subset to run (default: all)")
		asJSON   = fs.Bool("json", false, "emit findings as a JSON array")
		asSARIF  = fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
		list     = fs.Bool("list", false, "list registered analyzers and exit")
		dir      = fs.String("C", "", "module root to lint (default: nearest go.mod above the working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(stderr, "paslint: -json and -sarif are mutually exclusive")
		return 2
	}
	analyzers := rules.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *ruleList != "" {
		subset, ok := rules.ByName(*ruleList)
		if !ok || len(subset) == 0 {
			fmt.Fprintf(stderr, "paslint: unknown rule in -rules=%q (try -list)\n", *ruleList)
			return 2
		}
		analyzers = subset
	}
	root := *dir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintf(stderr, "paslint: %v\n", err)
			return 2
		}
	}
	// Diagnostics carry absolute paths; the root must be absolute too
	// or -sarif's URI relativization silently degrades (-C . is legal).
	if abs, err := filepath.Abs(root); err == nil {
		root = abs
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint(root, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "paslint: %v\n", err)
		return 2
	}
	switch {
	case *asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "paslint: encoding: %v\n", err)
			return 2
		}
	case *asSARIF:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildSARIF(diags, analyzers, root)); err != nil {
			fmt.Fprintf(stderr, "paslint: encoding: %v\n", err)
			return 2
		}
	default:
		cwd, _ := os.Getwd()
		for _, d := range diags {
			name := d.Pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
					name = rel
				}
			}
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "paslint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// lint loads the packages matching patterns and runs analyzers over
// them. A whole-module analyzer needs every package and its tests to
// count references, so when one is selected the whole module is loaded
// once, with its tests, and only findings inside the matched packages
// are kept.
func lint(root string, patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	cfg := analysis.Config{Dir: root}
	if !slices.ContainsFunc(analyzers, func(a *analysis.Analyzer) bool { return a.RunModule != nil }) {
		pkgs, err := analysis.Load(cfg, patterns...)
		if err != nil {
			return nil, err
		}
		return analysis.Run(pkgs, analyzers)
	}
	matched, err := analysis.Match(cfg, patterns...)
	if err != nil {
		return nil, err
	}
	cfg.Tests = true
	all, err := analysis.Load(cfg, "./...")
	if err != nil {
		return nil, err
	}
	return analysis.RunMatched(all, matched, analyzers)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory; pass -C <moduleroot>")
		}
		dir = parent
	}
}
