package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestErrWrap(t *testing.T) {
	old := errWrapPaths
	errWrapPaths = append([]string{"errwrap"}, old...)
	defer func() { errWrapPaths = old }()
	analysistest.Run(t, analysistest.Fixture("errwrap"), errWrap)
}
