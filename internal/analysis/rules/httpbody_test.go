package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestHTTPBody(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("httpbody"), HTTPBody)
}

// TestRegistry pins the analyzer set: a rule dropped from All() would
// silently stop gating CI.
func TestRegistry(t *testing.T) {
	want := map[string]bool{
		"determinism": true, "ctxpropagate": true, "lockheld": true,
		"errwrap": true, "httpbody": true,
		"goroutineleak": true, "timerstop": true, "atomicmix": true,
		"chanhygiene": true, "hotpathalloc": true, "unused": true,
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q needs a Doc and exactly one of Run, RunModule", a.Name)
		}
	}
	if sub, ok := ByName("determinism,errwrap"); !ok || len(sub) != 2 {
		t.Errorf("ByName(determinism,errwrap) = %v, %v", sub, ok)
	}
	if _, ok := ByName("nosuchrule"); ok {
		t.Error("ByName accepted an unknown rule")
	}
}
