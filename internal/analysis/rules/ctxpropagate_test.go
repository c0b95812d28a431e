package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestCtxPropagate(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("ctxpropagate"), ctxPropagate)
}
