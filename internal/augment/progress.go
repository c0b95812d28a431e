package augment

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Progress is the live view of a running (or finished) generation
// stage, updated lock-free by the worker pool and scraped by an obs
// collector. All methods are safe on a nil receiver so un-instrumented
// runs pay nothing.
type Progress struct {
	planned     atomic.Int64
	done        atomic.Int64
	replayed    atomic.Int64
	quarantined atomic.Int64
	faults      atomic.Int64
	regens      atomic.Int64

	mu         sync.Mutex
	regenByCat map[string]int64
}

func (p *Progress) setPlanned(n int) {
	if p == nil {
		return
	}
	p.planned.Store(int64(n))
}

// restored accounts a journal-replayed record: it is done without
// having been recomputed.
func (p *Progress) restored(rec *ItemRecord) {
	if p == nil {
		return
	}
	p.replayed.Add(1)
	p.account(rec)
}

// completed accounts a freshly computed record.
func (p *Progress) completed(rec *ItemRecord) {
	if p == nil {
		return
	}
	p.account(rec)
}

func (p *Progress) account(rec *ItemRecord) {
	p.done.Add(1)
	if rec.Quarantined {
		p.quarantined.Add(1)
	}
}

func (p *Progress) fault() {
	if p == nil {
		return
	}
	p.faults.Add(1)
}

func (p *Progress) regenerated(category string) {
	if p == nil {
		return
	}
	p.regens.Add(1)
	p.mu.Lock()
	if p.regenByCat == nil {
		p.regenByCat = make(map[string]int64)
	}
	p.regenByCat[category]++
	p.mu.Unlock()
}

// Collect emits the stage's counters into a metrics scrape; register
// it on a registry via obs.Registry.RegisterCollector. Per-category
// regeneration counts are emitted in sorted order for a stable
// exposition.
func (p *Progress) Collect(e *obs.Emitter) {
	e.Gauge("pas_build_items_planned", "Items admitted into the generation plan.", float64(p.planned.Load()), "stage", "augment")
	e.Gauge("pas_build_items_done", "Items finished (restored plus computed).", float64(p.done.Load()), "stage", "augment")
	e.Counter("pas_build_items_restored_total", "Items restored from a checkpoint journal instead of recomputed.", float64(p.replayed.Load()))
	e.Counter("pas_build_quarantined_total", "Items quarantined after exhausting their regeneration budget.", float64(p.quarantined.Load()))
	e.Counter("pas_build_faults_total", "Failed model calls observed during generation.", float64(p.faults.Load()))
	e.Counter("pas_build_regens_total", "Regeneration attempts across all categories.", float64(p.regens.Load()))

	p.mu.Lock()
	cats := make([]string, 0, len(p.regenByCat))
	for c := range p.regenByCat {
		cats = append(cats, c)
	}
	counts := make(map[string]int64, len(p.regenByCat))
	for c, n := range p.regenByCat {
		counts[c] = n
	}
	p.mu.Unlock()
	sort.Strings(cats)
	for _, c := range cats {
		e.Counter("pas_augment_regen_total", "Regeneration attempts per category.", float64(counts[c]), "category", c)
	}
}
