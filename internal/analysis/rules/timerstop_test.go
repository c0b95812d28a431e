package rules

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestTimerStop(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("timerstop"), timerStop)
}
