// Package curation implements the §3.1 prompt-selection pipeline: embed
// the raw pool, group near-duplicates with HNSW and keep one
// representative per group, score quality with an LLM and drop low-quality
// entries, and classify the survivors into the 14 categories.
package curation

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/facet"
	"repro/internal/simllm"
)

// Curated is one prompt that survived selection.
type Curated struct {
	// Prompt is the original pool entry.
	Prompt corpus.Prompt
	// Category is the classifier's label.
	Category facet.Category
}

// Stats summarises what each stage did.
type Stats struct {
	Input        int // raw pool size
	AfterDedup   int // representatives kept
	AfterFilter  int // survivors of the quality filter
	DroppedJunk  int // known-junk prompts removed by the filter
	LeakedJunk   int // known-junk prompts that survived (filter noise)
	DupCollapsed int // duplicate entries removed by dedup
}

// Config controls the pipeline.
type Config struct {
	// Embed configures the sentence encoder.
	Embed embed.Config
	// Dedup configures near-duplicate grouping.
	Dedup cluster.DedupConfig
	// QualityThreshold is the minimum scorer rating to keep. The paper
	// filters "low-quality entries"; 5.0 keeps most real prompts and
	// drops junk.
	QualityThreshold float64
	// ScorerModel names the quality-scoring LLM (§3.1 uses BaiChuan 13B).
	ScorerModel string
	// OnProgress, when set, is called after each quality-scoring call
	// with the number of representatives scored so far and the total —
	// the scoring loop dominates curation wall-clock, and long builds
	// surface it on /metricsz. Excluded from checkpoint fingerprints.
	OnProgress func(done, total int) `json:"-"`
}

// DefaultConfig returns the pipeline settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		Embed:            embed.DefaultConfig(),
		Dedup:            cluster.DefaultDedupConfig(),
		QualityThreshold: 5.0,
		ScorerModel:      simllm.Baichuan13B,
	}
}

// Result is the pipeline output.
type Result struct {
	Selected []Curated
	Stats    Stats
}

// Run executes the three-stage pipeline over the pool.
func Run(pool []corpus.Prompt, clf *classify.Classifier, cfg Config) (*Result, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("curation: empty pool")
	}
	if clf == nil {
		return nil, fmt.Errorf("curation: nil classifier")
	}
	if cfg.QualityThreshold < 0 || cfg.QualityThreshold > 10 {
		return nil, fmt.Errorf("curation: quality threshold must be in [0,10], got %v", cfg.QualityThreshold)
	}
	scorer, err := simllm.LookupProfile(cfg.ScorerModel)
	if err != nil {
		return nil, fmt.Errorf("curation: scorer: %w", err)
	}
	scorerModel, err := simllm.New(scorer)
	if err != nil {
		return nil, err
	}

	// Stage 1: embed and deduplicate.
	enc, err := embed.New(cfg.Embed)
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(pool))
	for i, p := range pool {
		texts[i] = p.Text
	}
	if err := enc.Fit(texts); err != nil {
		return nil, err
	}
	vecs := enc.EncodeBatch(texts)
	groups, err := cluster.NearDuplicates(vecs, cfg.Dedup)
	if err != nil {
		return nil, fmt.Errorf("curation: dedup: %w", err)
	}

	var st Stats
	st.Input = len(pool)
	reps := make([]corpus.Prompt, 0, len(groups))
	for _, g := range groups {
		reps = append(reps, pool[g.Representative])
		st.DupCollapsed += len(g.Members) - 1
	}
	st.AfterDedup = len(reps)

	// Stage 2: quality filter.
	var kept []corpus.Prompt
	for i, p := range reps {
		s := scorerModel.ScorePromptQuality(p.Text)
		if cfg.OnProgress != nil {
			cfg.OnProgress(i+1, len(reps))
		}
		if s >= cfg.QualityThreshold {
			kept = append(kept, p)
			if p.Truth.Junk {
				st.LeakedJunk++
			}
		} else if p.Truth.Junk {
			st.DroppedJunk++
		}
	}
	st.AfterFilter = len(kept)

	// Stage 3: classification.
	out := make([]Curated, 0, len(kept))
	for _, p := range kept {
		cat, _ := clf.Predict(p.Text)
		out = append(out, Curated{Prompt: p, Category: cat})
	}
	return &Result{Selected: out, Stats: st}, nil
}
