package rules

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("hotpathalloc"), hotPathAlloc)
}

// TestHotPathStaleMarker drives the runner directly: the stale-marker
// diagnostic lands on the directive's own line, where an analysistest
// want comment cannot sit.
func TestHotPathStaleMarker(t *testing.T) {
	dir, err := filepath.Abs(analysistest.Fixture("hotpathstale"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(analysis.Config{
		Fset:     fset,
		Dir:      dir,
		Module:   "hotpathstale",
		Importer: analysis.NewSourceImporter(fset),
	}, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{hotPathAlloc})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "hotpathalloc" || !strings.Contains(d.Message, "marks no function") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if filepath.Base(d.Pos.Filename) != "stale.go" || d.Pos.Line != 7 {
		t.Errorf("stale marker reported at %s:%d, want stale.go:7", filepath.Base(d.Pos.Filename), d.Pos.Line)
	}
}
