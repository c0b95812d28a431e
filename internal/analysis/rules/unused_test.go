package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestUnused runs the whole-module rule over a fixture module. The root
// package declares every shape the rule reports or spares; cmd/app is
// its non-test caller, and app's test reaches Seam (an export only
// another package's tests use) and reads Sample.Truth (a field only they
// read); the root's external test reaches OwnSeam and an export_test.go
// hook. internal/x shows the rule reports in every package, and
// cmd/plugin, a directory with its own go.mod, shows a nested module is
// read for references but not reported in. Knobs has a field for each
// kind of store and one nothing stores to, and a stale waiver sits next
// to one for a rule that did not run.
func TestUnused(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("unused"), unused)
}
