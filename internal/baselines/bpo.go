package baselines

import (
	"fmt"
	"strings"

	"repro/internal/facet"
	"repro/internal/simllm"
	"repro/internal/textkit"
)

// BPO reproduces the Black-box Prompt Optimization baseline (Cheng et
// al.), the paper's previous state of the art. Unlike PAS, BPO *rewrites*
// the user prompt rather than complementing it. Its fine-tuned rewriter
// (a LLaMA-2-7B trained on 14k human-preference pairs) paraphrases the
// prompt — sometimes dropping content words or an explicit constraint cue
// in the process — and splices in directive phrases it learned from
// preference data.
//
// The information loss is the source of the instability the paper
// observes (Table 1: BPO lands below the no-APE baseline on some models):
// the downstream model answers the rewrite, but the judge scores the
// response against the user's *original* prompt.
type BPO struct {
	base simllm.Profile
	seed uint64
}

// NewBPO creates the rewriter on the given base model. The paper's BPO
// uses LLaMA-2-7B-instruct.
func NewBPO(baseModel string) (*BPO, error) {
	p, err := simllm.LookupProfile(baseModel)
	if err != nil {
		return nil, fmt.Errorf("baselines: bpo: %w", err)
	}
	return &BPO{base: p, seed: textkit.Hash64("bpo/" + baseModel)}, nil
}

// Name implements APE.
func (b *BPO) Name() string { return "BPO" }

// Transform rewrites the prompt. The rewrite keeps most words, drops each
// content word with a base-dependent probability (paraphrase loss), and
// appends one or two directives from the rewriter's learned distribution.
func (b *BPO) Transform(prompt, salt string) string {
	toks := textkit.Tokenize(prompt)
	dropRate := 0.03 + 0.10*(1-b.base.Quality)

	var kept []string
	for i, tok := range toks {
		s := string(tok)
		key := fmt.Sprintf("drop/%d/%s/%s", i, s, salt)
		if len(s) > 3 && textkit.Unit(key+prompt, b.seed) < dropRate {
			continue // paraphrase lost this word
		}
		kept = append(kept, s)
	}
	rewritten := rejoin(kept)
	if strings.TrimSpace(rewritten) == "" {
		rewritten = prompt
	}

	// Learned directive splice: BPO's preference training teaches it the
	// crowd-pleasing improvements — detail, structure — applied with less
	// regard for the specific prompt's needs than PAS's curated policy.
	a := facet.AnalyzePrompt(prompt)
	dir := b.pickDirectives(a, prompt, salt)
	if len(dir) > 0 {
		rewritten += " " + facet.RenderDirectives(dir, prompt+salt+"bpo")
	}
	return rewritten
}

func (b *BPO) pickDirectives(a facet.Analysis, prompt, salt string) []facet.Facet {
	// Preference-data favourites, in learned order of prevalence.
	favourites := []facet.Facet{facet.Completeness, facet.Structure, facet.Specificity, facet.Examples}
	var out []facet.Facet
	for _, f := range favourites {
		if len(out) == 2 {
			break
		}
		if textkit.Unit("dir/"+f.String()+"/"+salt+prompt, b.seed) < 0.35+0.35*b.base.Quality {
			out = append(out, f)
		}
	}
	// The preference habit occasionally overrides an explicit constraint
	// (e.g. demanding completeness on a "briefly" prompt) — BPO has no
	// critic stage to catch this.
	if a.Constraints.Has(facet.Conciseness) {
		filtered := out[:0]
		for _, f := range out {
			if facet.ConflictsWith(f, facet.Conciseness) &&
				textkit.Unit("respect/"+salt+prompt, b.seed) < 0.55 {
				continue
			}
			filtered = append(filtered, f)
		}
		out = filtered
	}
	return out
}

// rejoin reassembles tokens into readable text: punctuation attaches to
// the preceding token, words are space-separated.
func rejoin(toks []string) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 && isWordLike(t) {
			sb.WriteByte(' ')
		}
		sb.WriteString(t)
	}
	return sb.String()
}

func isWordLike(t string) bool {
	if t == "" {
		return false
	}
	c := t[0]
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}
