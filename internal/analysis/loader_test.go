package analysis

import (
	"go/ast"
	"go/token"
	"testing"
)

// TestLoadModulePackages smoke-tests the loader against the repository
// itself: module-local recursion (serving imports obs), stdlib
// source-importing (net/http closure), and directive collection all run
// on real input.
func TestLoadModulePackages(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(Config{Fset: fset, Dir: "../.."}, "./internal/serving", "./internal/textkit")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Fatalf("package %s loaded incompletely", p.Path)
		}
	}
	sv := byPath["repro/internal/serving"]
	if sv == nil {
		t.Fatalf("serving package missing; got %v", byPath)
	}
	// The serving package must see real types for its stdlib and
	// intra-module imports, not error sentinels.
	found := false
	for _, imp := range sv.Types.Imports() {
		if imp.Path() == "repro/internal/obs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("serving package lost its obs import: %v", sv.Types.Imports())
	}
}

// TestLoadWholeRepo loads every package the driver would, proving the
// stdlib source importer can carry the full closure (net/http,
// net/http/httputil, encoding/json, ...).
func TestLoadWholeRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load in -short mode")
	}
	pkgs, err := Load(Config{Dir: "../.."}, "./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 25 {
		t.Fatalf("got %d packages, expected the whole module", len(pkgs))
	}
}

// TestLoadTestVariants checks Config.Tests: the root package's
// in-package tests and its external _test package are type-checked
// beside it, and an in-package test's reference to the package's own
// declaration resolves to an object at that declaration's position.
func TestLoadTestVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the test closure's stdlib sources")
	}
	fset := token.NewFileSet()
	pkgs, err := Load(Config{Fset: fset, Dir: "../..", Tests: true}, ".")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	root := pkgs[0]
	if len(root.Tests) != 2 {
		t.Fatalf("root package has %d test variants, want 2 (in-package and external)", len(root.Tests))
	}
	decl := root.Types.Scope().Lookup("cat")
	if decl == nil {
		t.Fatal("root package lost its cat helper")
	}
	found := false
	for _, f := range root.Tests[0].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "cat" {
				if obj := root.Tests[0].Info.Uses[id]; obj != nil && obj.Pos() == decl.Pos() {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		t.Error("no in-package test reference to cat resolved to its declaration")
	}
}
