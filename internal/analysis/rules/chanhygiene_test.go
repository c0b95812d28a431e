package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestChanHygiene(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("chanhygiene"), chanHygiene)
}
