package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("atomicmix"), atomicMix)
}
