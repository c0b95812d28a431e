package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	old := deterministicPaths
	deterministicPaths = append([]string{"determinism"}, old...)
	defer func() { deterministicPaths = old }()
	analysistest.Run(t, analysistest.Fixture("determinism"), determinism)
}
