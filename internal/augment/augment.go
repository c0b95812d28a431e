// Package augment implements Algorithm 1 of the paper: the automatic
// complementary-prompt dataset generation pipeline of §3.2. For every
// curated prompt it few-shot-generates a complementary prompt from the
// category's golden examples (Figure 4), then — unless disabled for the
// Table 5 ablation — submits each pair to the critic (Figure 5) and
// regenerates rejected pairs with fresh sampling salt until the critic
// accepts or the attempt budget runs out.
//
// The loop is built for crash-safe, resumable builds: the work plan is
// fixed up front (so it is independent of outcomes and of worker
// scheduling), items are processed by a bounded-concurrency worker
// pool, and every finished item is committed to a journal before it
// counts as done. A resumed run replays journaled records, recomputes
// only the missing items, and assembles a byte-identical dataset — the
// per-item computation depends only on (prompt, salt, model), never on
// wall clock, worker interleaving, or other items. Items whose model
// calls keep failing are quarantined after the attempt budget instead
// of failing the build.
package augment

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/curation"
	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/simllm"
)

// Config controls the pipeline.
type Config struct {
	// GeneratorModel names the few-shot generation LLM.
	GeneratorModel string
	// CriticModel names the selection/regeneration LLM ("We employ GPT
	// to identify and regenerate incorrectly generated data").
	CriticModel string
	// MaxRegen bounds the regeneration loop per pair. The paper loops
	// until correct; a bound keeps the worst case finite. 0 means use
	// the default of 6. The same bound is the per-item fault budget:
	// an item whose model calls fail past it is quarantined.
	MaxRegen int
	// PerCategoryCap limits pairs per category ("each category
	// containing about 500 data points"). 0 means unlimited.
	PerCategoryCap int
	// HeavyCategoryCap is the higher cap for Coding and QA, which
	// dominate the Figure 6 distribution ("a substantial amount of
	// Coding and Q&A data"). 0 means use PerCategoryCap.
	HeavyCategoryCap int
	// Selection enables the selection-and-regeneration stage. Disabling
	// it reproduces the "wo selection" ablation of Table 5.
	Selection bool
	// Categories restricts generation to the given categories. Empty
	// means all. This is the §3.3 control knob: "our method [can]
	// generate specialized data to enhance prompt capabilities in
	// specific domains".
	Categories []facet.Category

	// Workers bounds generation concurrency; <=1 runs serially. The
	// output is identical for any worker count: the plan is fixed
	// before the pool starts and each item is computed independently.
	// Excluded from checkpoint fingerprints for the same reason.
	Workers int `json:"-"`
	// FaultGate, when set, is consulted before every generator and
	// critic call; an error counts as a failed attempt against the
	// item's budget. Wiring a resilience.FaultyChatter here injects
	// deterministic fault scripts into the build (chaos tests, soak
	// runs). Nil means no injected faults.
	FaultGate simllm.Chatter `json:"-"`
}

// DefaultConfig returns the paper's pipeline settings.
func DefaultConfig() Config {
	return Config{
		GeneratorModel:   simllm.GPT4Turbo,
		CriticModel:      simllm.GPT4Turbo,
		MaxRegen:         6,
		PerCategoryCap:   500,
		HeavyCategoryCap: 1500,
		Selection:        true,
	}
}

// Stats summarises a pipeline run.
type Stats struct {
	// Prompts is the number of curated prompts consumed.
	Prompts int
	// Rejected counts critic rejections (including re-rejections).
	Rejected int
	// Regenerated counts regeneration attempts performed.
	Regenerated int
	// GaveUp counts pairs kept after exhausting MaxRegen without critic
	// approval.
	GaveUp int
	// ResidualDefects counts kept pairs that are defective by ground
	// truth (the critic is imperfect); this is what the ablation turns
	// into benchmark points.
	ResidualDefects int
	// Quarantined counts items that exhausted their attempt budget on
	// failing model calls and were journaled and skipped instead of
	// failing the build.
	Quarantined int
	// RegenByCategory breaks Regenerated down per category name — the
	// paper's Figure 6 categories differ sharply in how often the
	// critic sends a pair back.
	RegenByCategory map[string]int
}

// ItemRecord is the journaled outcome of one plan item. It carries
// everything needed to reassemble the item's dataset contribution and
// stats without recomputing it: the journal is the commit point of the
// generation loop, so a crash resumes at the exact item.
type ItemRecord struct {
	// Index is the item's position in the curated input.
	Index int `json:"i"`
	// Category is the curated category name (for display; the curated
	// input remains the source of truth).
	Category string `json:"cat,omitempty"`
	// Complement is the accepted (or kept-after-give-up) generation.
	Complement string `json:"aug,omitempty"`
	// Source is the dataset provenance tag ("generated" or
	// "regenerated:<n>").
	Source string `json:"src,omitempty"`
	// Generated is 1 when the first-salt generation succeeded.
	Generated int `json:"gen,omitempty"`
	// Rejected counts critic rejections for this item.
	Rejected int `json:"rej,omitempty"`
	// Regenerated counts regeneration attempts for this item.
	Regenerated int `json:"reg,omitempty"`
	// GaveUp marks a pair kept after exhausting the budget without
	// critic approval.
	GaveUp bool `json:"gaveup,omitempty"`
	// Quarantined marks an item skipped after exhausting its budget on
	// failing model calls.
	Quarantined bool `json:"q,omitempty"`
	// Reason explains a quarantine ("generate: ..." or "critic: ...").
	Reason string `json:"why,omitempty"`
	// Faults counts failed model calls for this item.
	Faults int `json:"faults,omitempty"`
}

// Journal persists completed items. checkpoint.Journal satisfies it
// via a tiny adapter; tests substitute their own to inject crashes.
type Journal interface {
	Append(rec ItemRecord) error
}

// RunState carries resume and instrumentation hooks into RunResumable.
// The zero value runs from scratch with no persistence.
type RunState struct {
	// Done holds records replayed from a prior run's journal; their
	// items are restored, not recomputed.
	Done []ItemRecord
	// Journal, when set, receives every freshly computed record before
	// the item counts as done. An append error aborts the build (the
	// checkpoint would otherwise fall behind the output).
	Journal Journal
	// Progress, when set, receives live counters for /metricsz.
	Progress *Progress
}

// Quarantined describes one skipped item for reporting.
type Quarantined struct {
	Index    int
	Category facet.Category
	Reason   string
}

// Result is the pipeline output.
type Result struct {
	Data  *dataset.Dataset
	Stats Stats
	// Quarantine lists the items skipped after exhausting their
	// budgets, in plan order.
	Quarantine []Quarantined
}

// Run executes Algorithm 1 over curated prompts using the golden few-shot
// seed pairs.
func Run(curated []curation.Curated, golden map[facet.Category][]dataset.Pair, cfg Config) (*Result, error) {
	return RunResumable(curated, golden, cfg, RunState{})
}

// planItem is one admitted unit of work.
type planItem struct {
	idx int
	cat facet.Category
}

// RunResumable executes Algorithm 1 with journaling and resume. The
// work plan (which curated prompts are admitted under the category
// caps) is computed up front, so it depends only on the input order —
// never on generation outcomes — and is identical across runs of the
// same config. Items already present in st.Done are restored; the rest
// are computed by cfg.Workers concurrent workers and journaled as they
// finish. The assembled dataset and stats are byte-identical whether
// the run was interrupted-and-resumed or ran straight through.
func RunResumable(curated []curation.Curated, golden map[facet.Category][]dataset.Pair, cfg Config, st RunState) (*Result, error) {
	if len(curated) == 0 {
		return nil, fmt.Errorf("augment: no curated prompts")
	}
	if len(golden) == 0 {
		return nil, fmt.Errorf("augment: no golden data")
	}
	if cfg.MaxRegen == 0 {
		cfg.MaxRegen = 6
	}
	if cfg.MaxRegen < 0 {
		return nil, fmt.Errorf("augment: MaxRegen must be >= 0, got %d", cfg.MaxRegen)
	}
	gen, err := modelFor(cfg.GeneratorModel, "generator")
	if err != nil {
		return nil, err
	}
	critic, err := modelFor(cfg.CriticModel, "critic")
	if err != nil {
		return nil, err
	}

	plan := buildPlan(curated, cfg)
	prog := st.Progress
	prog.setPlanned(len(plan))

	// Restore replayed records. Indexes must belong to the plan — the
	// checkpoint fingerprint guarantees the plan is unchanged, so a
	// mismatch means the journal is not ours.
	records := make([]*ItemRecord, len(curated))
	planned := make(map[int]bool, len(plan))
	for _, it := range plan {
		planned[it.idx] = true
	}
	for i := range st.Done {
		rec := st.Done[i]
		if rec.Index < 0 || rec.Index >= len(curated) || !planned[rec.Index] {
			return nil, fmt.Errorf("augment: journal record for item %d is outside the build plan (stale or foreign checkpoint)", rec.Index)
		}
		records[rec.Index] = &rec
	}
	var pending []planItem
	for _, it := range plan {
		if records[it.idx] == nil {
			pending = append(pending, it)
		} else {
			prog.restored(records[it.idx])
		}
	}

	if err := processPending(curated, golden, cfg, st, gen, critic, pending, records); err != nil {
		return nil, err
	}
	return assemble(curated, plan, records)
}

// buildPlan admits curated prompts under the category filter and caps.
// Admission counts against the cap whether or not the item later
// quarantines, keeping the plan a pure function of the input order.
func buildPlan(curated []curation.Curated, cfg Config) []planItem {
	capFor := func(cat facet.Category) int {
		if cfg.HeavyCategoryCap > 0 && (cat == facet.Coding || cat == facet.QA) {
			return cfg.HeavyCategoryCap
		}
		return cfg.PerCategoryCap
	}
	allowed := make(map[facet.Category]bool, len(cfg.Categories))
	for _, c := range cfg.Categories {
		allowed[c] = true
	}
	perCat := make(map[facet.Category]int)
	var plan []planItem
	for i, c := range curated {
		if len(allowed) > 0 && !allowed[c.Category] {
			continue
		}
		if limit := capFor(c.Category); limit > 0 && perCat[c.Category] >= limit {
			continue
		}
		perCat[c.Category]++
		plan = append(plan, planItem{idx: i, cat: c.Category})
	}
	return plan
}

// processPending runs the worker pool over the not-yet-done items. The
// journal append is the commit point: a record is stored in records
// only after it is durably journaled, so a crash can lose at most
// in-flight work, never journaled work.
func processPending(curated []curation.Curated, golden map[facet.Category][]dataset.Pair, cfg Config, st RunState, gen, critic *simllm.Model, pending []planItem, records []*ItemRecord) error {
	if len(pending) == 0 {
		return nil
	}
	workers := cfg.Workers
	if workers <= 1 {
		workers = 1
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	items := make(chan planItem)
	abort := make(chan struct{})
	var abortOnce sync.Once
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		abortOnce.Do(func() { close(abort) })
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				rec := processItem(curated[it.idx], it, golden, cfg, gen, critic, st.Progress)
				if st.Journal != nil {
					if err := st.Journal.Append(rec); err != nil {
						fail(fmt.Errorf("augment: journaling item %d: %w", it.idx, err))
						return
					}
				}
				mu.Lock()
				records[it.idx] = &rec
				mu.Unlock()
				st.Progress.completed(&rec)
			}
		}()
	}
feed:
	for _, it := range pending {
		select {
		case items <- it:
		case <-abort:
			break feed
		}
	}
	close(items)
	wg.Wait()
	return firstErr
}

// processItem runs the per-item generate/critique/regenerate loop.
// Attempt n uses salt "gen/n"; every failure — an injected fault or a
// critic rejection — consumes one attempt. The loop ends in one of
// three states: accepted (or selection disabled), kept after give-up
// (critic still rejecting at the budget), or quarantined (the budget
// died on failing model calls, leaving nothing validated to keep).
func processItem(c curation.Curated, it planItem, golden map[facet.Category][]dataset.Pair, cfg Config, gen, critic *simllm.Model, prog *Progress) ItemRecord {
	rec := ItemRecord{Index: it.idx, Category: it.cat.String()}
	gate := func(op string) error {
		if cfg.FaultGate == nil {
			return nil
		}
		_, err := cfg.FaultGate.ChatContext(context.Background(), []simllm.Message{
			{Role: "system", Content: "augment/" + op},
			{Role: "user", Content: c.Prompt.Text},
		}, simllm.Options{})
		return err
	}

	attempt := 0
	for {
		if err := gate("generate"); err != nil {
			rec.Faults++
			prog.fault()
			if attempt >= cfg.MaxRegen {
				return quarantineRec(rec, fmt.Sprintf("generate: %v", err))
			}
			attempt++
			continue
		}
		rec.Complement = gen.GenerateComplement(c.Prompt.Text, len(golden[it.cat]), fmt.Sprintf("gen/%d", attempt))
		if attempt == 0 {
			rec.Generated++
		} else {
			rec.Regenerated++
			prog.regenerated(rec.Category)
		}
		if !cfg.Selection {
			break
		}
		if err := gate("critique"); err != nil {
			rec.Faults++
			prog.fault()
			if attempt >= cfg.MaxRegen {
				return quarantineRec(rec, fmt.Sprintf("critic: %v", err))
			}
			attempt++
			continue
		}
		if critic.CritiquePair(c.Prompt.Text, rec.Complement).Correct {
			break
		}
		rec.Rejected++
		if attempt >= cfg.MaxRegen {
			rec.GaveUp = true
			break
		}
		attempt++
	}
	rec.Source = "generated"
	if attempt > 0 {
		rec.Source = fmt.Sprintf("regenerated:%d", attempt)
	}
	return rec
}

// quarantineRec finalises a record as quarantined: whatever was
// generated is dropped, nothing of it reaches the dataset.
func quarantineRec(rec ItemRecord, reason string) ItemRecord {
	rec.Quarantined = true
	rec.Reason = reason
	rec.Complement = ""
	rec.Source = ""
	return rec
}

// assemble folds records into the dataset and stats in plan order, so
// the output bytes depend only on the plan and the per-item records —
// not on which of them were replayed and which freshly computed.
func assemble(curated []curation.Curated, plan []planItem, records []*ItemRecord) (*Result, error) {
	res := &Result{Data: &dataset.Dataset{}, Stats: Stats{RegenByCategory: make(map[string]int)}}
	for _, it := range plan {
		rec := records[it.idx]
		if rec == nil {
			return nil, fmt.Errorf("augment: item %d has no record after processing", it.idx)
		}
		res.Stats.Prompts++
		res.Stats.Rejected += rec.Rejected
		res.Stats.Regenerated += rec.Regenerated
		if rec.Regenerated > 0 {
			res.Stats.RegenByCategory[it.cat.String()] += rec.Regenerated
		}
		if rec.GaveUp {
			res.Stats.GaveUp++
		}
		if rec.Quarantined {
			res.Stats.Quarantined++
			res.Quarantine = append(res.Quarantine, Quarantined{
				Index:    it.idx,
				Category: it.cat,
				Reason:   rec.Reason,
			})
			continue
		}
		if isDefective(curated[it.idx].Prompt.Text, rec.Complement) {
			res.Stats.ResidualDefects++
		}
		if err := res.Data.Add(dataset.Pair{
			Prompt:     curated[it.idx].Prompt.Text,
			Complement: rec.Complement,
			Category:   it.cat.String(),
			Source:     rec.Source,
		}); err != nil {
			return nil, fmt.Errorf("augment: %w", err)
		}
	}
	return res, nil
}

// isDefective is the ground-truth defect check used for pipeline
// accounting and the ablation analysis: answer leak, constraint conflict,
// over-reach on a simple prompt, or no usable directive.
func isDefective(prompt, complement string) bool {
	a := facet.AnalyzePrompt(prompt)
	dirs := facet.DetectDirectives(complement)
	return facet.DetectAnswerLeak(complement) ||
		len(facet.ConflictingDirectives(a, dirs)) > 0 ||
		(dirs.Len() >= 4 && a.Complexity < 1) ||
		dirs.Len() == 0
}

func modelFor(name, role string) (*simllm.Model, error) {
	profile, err := simllm.LookupProfile(name)
	if err != nil {
		return nil, fmt.Errorf("augment: %s: %w", role, err)
	}
	return simllm.New(profile)
}
