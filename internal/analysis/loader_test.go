package analysis

import (
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
