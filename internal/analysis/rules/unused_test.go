package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestUnused runs the whole-module rule over a two-package fixture laid
// out as the rule's scope expects: the root package declares every shape
// the rule reports or spares, cmd/app is its non-test caller, app's test
// reaches Seam, an export only another package's tests use, and the
// root's external test reaches OwnSeam and an export_test.go hook.
func TestUnused(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("unused"), Unused)
}
