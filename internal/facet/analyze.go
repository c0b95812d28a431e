package facet

import (
	"math/bits"
	"strings"
	"unicode"

	"repro/internal/textkit"
)

// Analysis is the text-derived understanding of a user prompt: what a
// good answer needs, which facets the user has explicitly constrained,
// which category the prompt most resembles, and whether it hides a trap.
type Analysis struct {
	// Needs weighs how much each facet matters for answering well. It is
	// the category prior sharpened by explicit cues found in the text.
	Needs Weights
	// Constraints marks facets the user explicitly demanded (a directive
	// conflicting with a constrained facet is a defect).
	Constraints Set
	// Category is the best heuristic category guess.
	Category Category
	// CategoryScore is the cue-hit score of the guess (0 when no cue hit).
	CategoryScore int
	// Trap is the detected logic trap, if Trapped.
	Trap    Trap
	Trapped bool
	// Complexity grows with prompt length and number of active needs;
	// the critic treats heavy augmentation of simple prompts as a defect.
	Complexity float64
}

// AnalyzePrompt derives an Analysis from the prompt text alone. It is the
// shared "reading comprehension" routine of every simulated model, and
// the bulk of a serving cache miss, so it reads the prompt once: one
// tokenisation, then one cue-index lookup per word fills the hit count
// of all 14 category and 12 facet lexicons.
func AnalyzePrompt(text string) Analysis {
	// Room for a ~40-word prompt on the stack; longer ones spill to the heap.
	var wordBuf [256]byte
	var endBuf [48]int
	buf, ends := textkit.AppendWords(wordBuf[:0], endBuf[:0], text)
	var seen [cueLexicons]uint64
	promptCues.mark(buf, ends, seen[:])
	hits := func(lexicon int) int { return bits.OnesCount64(seen[lexicon]) }

	var a Analysis
	a.Category = QA
	for c := 0; c < CategoryCount; c++ {
		score := hits(c)
		// Coding/knowledge cues are rarer and more diagnostic than the
		// ubiquitous QA interrogatives; weight them up.
		if Category(c) != QA && Category(c) != Chitchat {
			score *= 2
		}
		if score > a.CategoryScore {
			a.Category, a.CategoryScore = Category(c), score
		}
	}
	a.Needs = NeedPrior(a.Category)

	// Sharpen needs with explicit cues; explicit cues also register as
	// constraints when they bound the answer (conciseness, style,
	// structure are binding; the rest just raise need weight).
	for f := 0; f < Count; f++ {
		n := hits(CategoryCount + f)
		if n == 0 {
			continue
		}
		a.Needs[f] += 0.5 * float64(n)
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

	active := 0
	for _, w := range a.Needs {
		if w > 0.3 {
			active++
		}
	}
	a.Complexity = float64(len(ends))/40 + float64(active)/4
	if a.Complexity > 3 {
		a.Complexity = 3
	}
	return a
}

// cueLexicons is the number of lexicons AnalyzePrompt counts hits in:
// categoryCues[c] is lexicon c, needCueLex[f] is lexicon CategoryCount+f.
const cueLexicons = CategoryCount + Count

// promptCues indexes those lexicons. It is filled in taxonomy order, not
// by ranging over the maps, so the index is the same in every process.
var promptCues = func() cueIndex {
	lexicons := make([][]string, 0, cueLexicons)
	for c := 0; c < CategoryCount; c++ {
		lexicons = append(lexicons, categoryCues[Category(c)])
	}
	for f := 0; f < Count; f++ {
		lexicons = append(lexicons, needCueLex[Facet(f)])
	}
	return buildCueIndex(lexicons)
}()

// cueIndex maps the first word of each lexicon entry to the entries that
// start with it. An entry is matched against the word sequence of a
// text: a single word as a whole token, several words as a phrase.
type cueIndex map[string][]cue

type cue struct {
	rest []string // the entry's words after the first
	lex  uint8    // the lexicon it belongs to
	bit  uint8    // its position in that lexicon
}

// buildCueIndex compiles lexicons, folding each entry the way
// AppendWords folds text. An entry that is not letters-only words joined
// by single spaces can occur in no word sequence and is left out.
func buildCueIndex(lexicons [][]string) cueIndex {
	notLetter := func(r rune) bool { return !unicode.IsLetter(r) }
	idx := cueIndex{}
	for l, lexicon := range lexicons {
		if len(lexicon) > 64 {
			panic("facet: a cue lexicon holds more entries than a 64-bit hit set")
		}
	entries:
		for bit, entry := range lexicon {
			words := strings.Split(strings.ToLower(strings.TrimSpace(entry)), " ")
			for _, w := range words {
				if w == "" || strings.IndexFunc(w, notLetter) >= 0 {
					continue entries
				}
			}
			idx[words[0]] = append(idx[words[0]], cue{rest: words[1:], lex: uint8(l), bit: uint8(bit)})
		}
	}
	return idx
}

// mark sets bit e of seen[l] for every entry e of lexicon l that occurs
// in the words of buf — word k is buf[ends[k-1]:ends[k]] — so the number
// of distinct entries of a lexicon that hit is the popcount of its word.
func (idx cueIndex) mark(buf []byte, ends []int, seen []uint64) {
	start := 0
	for i, end := range ends {
	candidates:
		for _, c := range idx[string(buf[start:end])] {
			for j, w := range c.rest {
				k := i + 1 + j
				if k >= len(ends) || string(buf[ends[k-1]:ends[k]]) != w {
					continue candidates
				}
			}
			seen[c.lex] |= 1 << c.bit
		}
		start = end
	}
}

// DetectDirectives reads a complementary prompt and returns the facets it
// demands, by matching the directive lexicon. This is how the simulated
// downstream LLM "obeys" an augmentation: only phrases present in the
// shared lexicon steer it.
func DetectDirectives(aug string) Set {
	folded := strings.ToLower(aug)
	var s Set
	for f := 0; f < Count; f++ {
		if countPhraseHits(folded, directiveLex[Facet(f)]) > 0 {
			s = s.With(Facet(f))
		}
	}
	return s
}

// DetectDelivered reads a response and scores how strongly it delivers
// each facet, from the delivery lexicon.
func DetectDelivered(response string) Weights {
	folded := strings.ToLower(response)
	var w Weights
	for f := 0; f < Count; f++ {
		hits := countPhraseHits(folded, deliveryLex[Facet(f)])
		w[f] = float64(hits)
		if w[f] > 3 {
			w[f] = 3
		}
	}
	return w
}

// DetectAnswerLeak reports whether an augmentation text directly answers
// the question instead of supplementing it.
func DetectAnswerLeak(aug string) bool {
	return countPhraseHits(strings.ToLower(aug), answerLeakCues) > 0
}

// ConflictingDirectives returns the demanded facets that conflict with
// the prompt's explicit constraints.
func ConflictingDirectives(a Analysis, directives Set) []Facet {
	var out []Facet
	for _, f := range directives.Facets() {
		for _, g := range a.Constraints.Facets() {
			if f != g && ConflictsWith(f, g) {
				out = append(out, f)
			}
		}
	}
	return out
}

// countPhraseHits counts the lexicon phrases occurring in folded, a
// lower-cased text. Unlike the cue index it matches substrings, because
// directive/delivery phrases include punctuation and markdown. The banks
// are stored lower-cased, with no empty phrase (TestPhraseLexiconsAreFolded).
func countPhraseHits(folded string, phrases []string) int {
	hits := 0
	for _, p := range phrases {
		if strings.Contains(folded, p) {
			hits++
		}
	}
	return hits
}
