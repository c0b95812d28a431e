package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestLockHeld(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("lockheld"), lockHeld)
}
