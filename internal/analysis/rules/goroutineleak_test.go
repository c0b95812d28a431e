package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestGoroutineLeak(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("goroutineleak"), goroutineLeak)
}
