package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestMultiRule runs two analyzers over one fixture: a line where both
// fire, and a //paslint:allow naming one rule that must leave the
// other's finding standing.
func TestMultiRule(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("multirule"), atomicMix, hotPathAlloc)
}
