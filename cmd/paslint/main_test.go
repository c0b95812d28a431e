package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestListShowsEveryRule(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errOut.String())
	}
	for _, rule := range []string{"determinism", "ctxpropagate", "lockheld", "errwrap", "httpbody", "unused"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing %q:\n%s", rule, out.String())
		}
	}
}

func TestUnknownRuleIsOperationalFailure(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nosuchrule") {
		t.Fatalf("stderr = %q, want the bad rule named", errOut.String())
	}
}

func TestBadFlagIsOperationalFailure(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestSARIFIsNotAFlag: -json is the one machine-readable format, and
// -sarif is as undefined as any other unknown flag.
func TestSARIFIsNotAFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-sarif", "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined: -sarif") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// TestLintCleanPackage runs the real pipeline over one small clean
// package and expects a silent exit 0. This is the driver's end-to-end
// smoke test; -short skips it because it type-checks stdlib sources.
func TestLintCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads stdlib sources")
	}
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-C", root, "-json", "./internal/textkit"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	// -json on a clean run still emits a well-formed (null/empty) array.
	var diags []json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Fatalf("expected no findings, got %d", len(diags))
	}
}

// TestModuleRuleOnASubset lints one package of the unused rule's
// fixture module: the rule still counts references across the whole
// module — Used is called from cmd/app — but reports only inside the
// matched package.
func TestModuleRuleOnASubset(t *testing.T) {
	if testing.Short() {
		t.Skip("loads stdlib sources")
	}
	fixture := filepath.Join("..", "..", "internal", "analysis", "rules", "testdata", "src", "unused")
	for _, tc := range []struct {
		pkg  string
		exit int
	}{{"./cmd/app", 0}, {".", 1}} {
		var out, errOut bytes.Buffer
		code := run([]string{"-C", fixture, "-json", "-rules", "unused", tc.pkg}, &out, &errOut)
		if code != tc.exit {
			t.Fatalf("%s: exit = %d, want %d\nstdout: %s\nstderr: %s", tc.pkg, code, tc.exit, out.String(), errOut.String())
		}
		var diags []analysis.Diagnostic
		if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
			t.Fatalf("%s: -json output: %v", tc.pkg, err)
		}
		for _, d := range diags {
			if filepath.Base(filepath.Dir(d.Pos.Filename)) != "unused" || strings.Contains(d.Message, "Used ") {
				t.Errorf("%s: finding outside the subset or on a live export: %s", tc.pkg, d)
			}
		}
		if tc.pkg == "." && len(diags) < 5 {
			t.Errorf(".: %d findings, want the fixture's reported shapes", len(diags))
		}
	}
}
