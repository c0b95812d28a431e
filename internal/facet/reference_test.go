package facet

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/textkit"
)

// This file keeps the analysis AnalyzePrompt replaced, as its reference:
// one countLexiconHits pass over the text per category and per facet,
// each re-tokenising, re-joining and re-folding. It is slow and simple,
// and the compiled cue index must agree with it on every input.

// referenceWords is textkit.Words as it was: the tokens of Tokenize that
// are letters throughout. The reference does not go through AppendWords,
// which is part of what it checks.
func referenceWords(text string) []string {
	var words []string
	for _, tok := range textkit.Tokenize(text) {
		if strings.IndexFunc(string(tok), func(r rune) bool { return !unicode.IsLetter(r) }) < 0 {
			words = append(words, string(tok))
		}
	}
	return words
}

// countLexiconHits counts how many lexicon entries occur in text.
// Multi-word lexicon entries are matched as phrases against the word
// sequence; single words are matched as whole tokens.
func countLexiconHits(text string, lexicon []string) int {
	words := referenceWords(text)
	joined := " " + strings.Join(words, " ") + " "
	hits := 0
	for _, entry := range lexicon {
		e := strings.ToLower(strings.TrimSpace(entry))
		if e == "" {
			continue
		}
		if strings.Contains(joined, " "+e+" ") {
			hits++
		}
	}
	return hits
}

func referenceAnalyzePrompt(text string) Analysis {
	var a Analysis
	a.Category, a.CategoryScore = referenceGuessCategory(text)
	a.Needs = NeedPrior(a.Category)
	for f := 0; f < Count; f++ {
		hits := countLexiconHits(text, needCueLex[Facet(f)])
		if hits == 0 {
			continue
		}
		a.Needs[f] += 0.5 * float64(hits)
		if a.Needs[f] > 2 {
			a.Needs[f] = 2
		}
		switch Facet(f) {
		case Conciseness, Style, Structure:
			a.Constraints = a.Constraints.With(Facet(f))
		}
	}
	if tr, ok := FindTrap(text); ok {
		a.Trap, a.Trapped = tr, true
		a.Needs[TrapAware] += 1.5
		a.Needs[Reasoning] += 0.5
	}
	words := float64(len(referenceWords(text)))
	active := 0
	for _, w := range a.Needs {
		if w > 0.3 {
			active++
		}
	}
	a.Complexity = words/40 + float64(active)/4
	if a.Complexity > 3 {
		a.Complexity = 3
	}
	return a
}

func referenceGuessCategory(text string) (Category, int) {
	best, bestScore := QA, 0
	for _, c := range Categories() {
		score := countLexiconHits(text, categoryCues[c])
		if c != QA && c != Chitchat {
			score *= 2
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best, bestScore
}

func TestCountLexiconHits(t *testing.T) {
	text := "please think step by step and show your reasoning"
	lex := []string{"step by step", "reasoning", "missing phrase"}
	if got := countLexiconHits(text, lex); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := countLexiconHits(text, []string{" ", ""}); got != 0 {
		t.Fatalf("blank lexicon entries should not count, got %d", got)
	}
}

// TestCueIndexMatchesReference holds the index builder itself — entry
// normalisation, multi-word phrases, duplicates, entries that can never
// match — to countLexiconHits, on lexicons the shipped ones do not have.
func TestCueIndexMatchesReference(t *testing.T) {
	lexicons := [][]string{
		{"step by step", "Reasoning", "  padded  ", "", " ", "step", "step", "by step and"},
		{"in depth", "in  depth", "in-depth", "in 5 depth", "depth", "in", "widow's", "tl;dr", "naïve", "ÉCOLE"},
		{"show your reasoning", "your reasoning please", "reasoning", "and"},
	}
	idx := buildCueIndex(lexicons)
	for _, text := range []string{
		"", "please think step by step and show your reasoning", "Step. By. Step!", "step by", "by step and",
		"in depth", "IN 5 DEPTH", "in-depth", "in  depth", "depth in", "padded", "une école naïve", "tl;dr widow's",
		"reasoning", "show your reasoning please", "step step step",
	} {
		buf, ends := textkit.AppendWords(nil, nil, text)
		seen := make([]uint64, len(lexicons))
		idx.mark(buf, ends, seen)
		for l, lex := range lexicons {
			if got, want := bits.OnesCount64(seen[l]), countLexiconHits(text, lex); got != want {
				t.Errorf("text %q, lexicon %d: index counts %d hits, reference %d", text, l, got, want)
			}
		}
	}
}

// FuzzAnalyzeMatchesReference: the single-pass AnalyzePrompt must return
// exactly what the 26-pass reference returns, for any input.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	for _, seed := range []string{
		// fuzz_test.go's seeds.
		"", "Explain how tides form.",
		"If there are 10 birds on a tree and one is shot dead, how many birds are on the ground?",
		"Briefly, summarize this. Use an organized format with a list.",
		"\x00\xff", "ALL CAPS ????", "a b c d e f g h i j k l m n o p",
		// Multi-word entries: whole, split by digits and punctuation,
		// reversed, overlapping, at the last token.
		"in depth", "cover it in depth", "in 5 depth", "in-depth", "in, depth", "depth in", "in in depth depth",
		"one sentence", "answer in one sentence", "one 1 sentence", "one sentences", "ONE SENTENCE",
		// Adjacent duplicates and near-duplicates count once per entry.
		"example examples", "example example example", "why why WHY", "step steps step",
		// Entries at the first and last token.
		"tldr", "give me the tldr", "summary", "what", "plan",
		// Entries shared between a category and a facet lexicon.
		"list the logic of the riddle and the trick puzzle, then deduce why",
		// Invalid UTF-8 and non-ASCII letters split or extend words.
		"wh\xffy", "why\xff", "\xffwhy", "whý", "İ why", "ǅ list", "brièvement briefly", "Ⓑriefly", "x²why",
		// Traps stay a substring match on the raw text.
		"MONTHS HAVE 28 DAYS?", "marry his widow's sister", "months have 28  days",
	} {
		f.Add(seed)
	}
	f.Fuzz(checkAgainstReference)
}

func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	if got, want := AnalyzePrompt(s), referenceAnalyzePrompt(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzePrompt(%q)\n got %+v\nwant %+v", s, got, want)
	}
}

// TestAnalyzeMatchesReferenceOnLexiconWords walks every cue of every
// lexicon through the two analyses, alone and in pairs, so each index
// entry is exercised without waiting for the fuzzer to find it.
func TestAnalyzeMatchesReferenceOnLexiconWords(t *testing.T) {
	var cues []string
	for _, c := range Categories() {
		cues = append(cues, categoryCues[c]...)
	}
	for _, f := range All() {
		cues = append(cues, needCueLex[f]...)
	}
	check := func(s string) { t.Helper(); checkAgainstReference(t, s) }
	for i, cue := range cues {
		next := cues[(i+1)%len(cues)]
		check(cue)
		check(strings.ToUpper(cue) + "!")
		check(cue + " " + next)
		check(next + ", " + cue + " 7 " + cue)
		check("please " + cue + "s and " + next + " now")
	}
	check(strings.Join(cues, " "))
}

// benchPrompt is shaped like the benchmark's prompts: 25 words, one
// clause each of topic, audience, qualifier and format.
const benchPrompt = "Explain how consistent hashing works and describe the mechanism to a new graduate, keeping the scope small and the tone neutral; answer in short paragraphs."

func BenchmarkAnalyzePrompt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AnalyzePrompt(benchPrompt)
	}
}

func BenchmarkReferenceAnalyzePrompt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		referenceAnalyzePrompt(benchPrompt)
	}
}

// TestAnalyzePromptAllocations: one analysis of a 25-word prompt fits
// its stack buffers; what is left is FindTrap's lower-cased copy.
func TestAnalyzePromptAllocations(t *testing.T) {
	if n := len(strings.Fields(benchPrompt)); n != 25 {
		t.Fatalf("prompt has %d words, want 25", n)
	}
	if allocs := testing.AllocsPerRun(200, func() { AnalyzePrompt(benchPrompt) }); allocs > 6 {
		t.Errorf("AnalyzePrompt makes %v allocations per call on a 25-word prompt, want <= 6", allocs)
	}
}

// referenceRenderDirectives is RenderDirectives as it was: a hash key
// and a phrase list built by concatenation.
func referenceRenderDirectives(facets []Facet, variant string) string {
	if len(facets) == 0 {
		return ""
	}
	parts := make([]string, 0, len(facets))
	for i, f := range facets {
		lex := directiveLex[f]
		if len(lex) == 0 {
			continue
		}
		phrase := lex[textkit.Bucket(variant+"/"+f.String(), 0xd1ec, len(lex))]
		if i == 0 {
			phrase = "Please " + phrase
		}
		parts = append(parts, phrase)
	}
	return strings.Join(parts, "; ") + "."
}

func TestRenderDirectivesMatchesReference(t *testing.T) {
	sets := [][]Facet{nil, {Reasoning}, {Facet(99)}, {Facet(99), Style}, {Style, Facet(-1), Safety}, All()}
	for i := 0; i+3 <= Count; i++ {
		sets = append(sets, All()[i:i+3])
	}
	for _, facets := range sets {
		for _, variant := range []string{"", "v1", "golden/coding/3", "a prompt\x00with salt", "wh\xffy"} {
			if got, want := RenderDirectives(facets, variant), referenceRenderDirectives(facets, variant); got != want {
				t.Errorf("RenderDirectives(%v, %q) = %q, reference %q", facets, variant, got, want)
			}
		}
	}
}
