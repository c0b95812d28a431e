package pipeline

import (
	"sync/atomic"

	"repro/internal/augment"
	"repro/internal/obs"
)

// Build stages, in execution order; 0 is idle, the zero Progress.
const (
	stageCorpus int32 = iota + 1
	stageCuration
	stageAugment
	stageSFT
	stageDone
)

// stageNames maps stage codes to their /metricsz labels.
var stageNames = []string{"idle", "corpus", "curation", "augment", "sft", "done"}

// Progress is the live view of one build for observability: the
// current stage, curation scoring progress, and the generation stage's
// item/quarantine counters. Create one, pass it in BuildOptions, and
// register Collect on an obs.Registry to surface /metricsz gauges
// while the build runs. Methods tolerate a nil receiver so the
// un-instrumented path costs nothing.
type Progress struct {
	stage    atomic.Int32
	curDone  atomic.Int64
	curTotal atomic.Int64

	// Augment holds the generation-stage counters; augment workers
	// update it directly.
	Augment augment.Progress
}

func (p *Progress) setStage(s int32) {
	if p == nil {
		return
	}
	p.stage.Store(s)
}

// curationTick records quality-scoring progress; it is the curation
// stage's OnProgress callback.
func (p *Progress) curationTick(done, total int) {
	if p == nil {
		return
	}
	p.curDone.Store(int64(done))
	p.curTotal.Store(int64(total))
}

// augmentProgress returns the generation-stage counter sink, or nil
// when the build is un-instrumented.
func (p *Progress) augmentProgress() *augment.Progress {
	if p == nil {
		return nil
	}
	return &p.Augment
}

// Collect emits the build's progress into a metrics scrape. The
// current stage is a one-hot gauge over all stages so dashboards can
// plot transitions without string parsing.
func (p *Progress) Collect(e *obs.Emitter) {
	current := p.stage.Load()
	for code, name := range stageNames {
		v := 0.0
		if int32(code) == current {
			v = 1
		}
		e.Gauge("pas_build_stage", "One-hot build stage indicator.", v, "stage", name)
	}
	e.Gauge("pas_build_items_planned", "Items admitted into the stage's work plan.", float64(p.curTotal.Load()), "stage", "curation")
	e.Gauge("pas_build_items_done", "Items finished in the stage.", float64(p.curDone.Load()), "stage", "curation")
	p.Augment.Collect(e)
}
