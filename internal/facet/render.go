package facet

import (
	"strings"

	"repro/internal/textkit"
)

// RenderDirectives composes a complementary-prompt sentence demanding the
// given facets. The variant key deterministically varies which lexicon
// phrase is used for each facet, so generated augmentations are textually
// diverse while remaining machine-readable through DetectDirectives.
//
// The output follows the paper's instruction to "focus on methodology,
// not specific details, and try to keep it within 30 words".
func RenderDirectives(facets []Facet, variant string) string {
	if len(facets) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(32 * len(facets))
	for i, f := range facets {
		lex := directiveLex[f]
		if len(lex) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		if i == 0 {
			b.WriteString("Please ")
		}
		// The hash of variant+"/"+f.String(), fed in pieces.
		h := textkit.NewHasher(0xd1ec).Add(variant).Add("/").Add(f.String())
		b.WriteString(lex[h.Bucket(len(lex))])
	}
	b.WriteByte('.')
	return b.String()
}

// RenderConflicting composes a defective augmentation that demands a facet
// known to conflict with the prompt's constraints. The corpus and the
// no-selection ablation use it to synthesise the bad pairs that the §3.2
// critic must catch.
func RenderConflicting(constrained Facet, variant string) string {
	for f := 0; f < Count; f++ {
		if Facet(f) != constrained && ConflictsWith(Facet(f), constrained) {
			return RenderDirectives([]Facet{Facet(f)}, variant)
		}
	}
	// No conflicting partner in the taxonomy: fall back to an over-reach.
	return RenderDirectives([]Facet{Completeness, Examples, Context, Safety}, variant)
}

// RenderAnswerLeak composes a defective augmentation that directly answers
// the prompt instead of complementing it (critic defect class 3).
func RenderAnswerLeak(variant string) string {
	cues := AnswerLeakCues()
	pick := textkit.Bucket(variant, 0x1eaf, len(cues))
	return "Here is the solution: " + cues[pick] + " as computed directly."
}
