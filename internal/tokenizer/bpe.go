// Package tokenizer implements a byte-pair-encoding (BPE) subword
// tokenizer of the kind every chat LLM in the paper's roster uses. The
// chat-API layer (internal/chatapi) uses it for token accounting — prompt
// and completion token counts, usage-based limits — which is how the
// plug-and-play deployment of §3.4 meters the extra tokens PAS adds to
// each request.
//
// The implementation is the classic Sennrich et al. algorithm: train by
// repeatedly merging the most frequent adjacent symbol pair; encode by
// replaying merges in learned order. Training and encoding are
// deterministic (ties break lexicographically).
package tokenizer

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/textkit"
)

// endOfWord marks word boundaries inside the symbol stream so merges
// never cross words.
const endOfWord = "</w>"

// Config controls training.
type Config struct {
	// VocabSize is the target vocabulary size (base symbols + merges).
	VocabSize int
	// MinPairFreq stops merging when the best pair is rarer than this.
	MinPairFreq int
}

// Tokenizer is a trained BPE model.
type Tokenizer struct {
	rank   map[[2]string]int // pair -> merge priority
	vocab  map[string]int    // token -> id
	tokens []string          // id -> token
}

// errEmptyCorpus is returned when training with no usable text.
var errEmptyCorpus = errors.New("tokenizer: empty corpus")

// Train learns a BPE vocabulary from the corpus.
func Train(corpus []string, cfg Config) (*Tokenizer, error) {
	if cfg.VocabSize < 16 {
		return nil, fmt.Errorf("tokenizer: VocabSize must be >= 16, got %d", cfg.VocabSize)
	}
	if cfg.MinPairFreq < 1 {
		return nil, fmt.Errorf("tokenizer: MinPairFreq must be >= 1, got %d", cfg.MinPairFreq)
	}

	// Word frequency table over the whole corpus.
	wordFreq := make(map[string]int)
	for _, doc := range corpus {
		for _, w := range textkit.Words(doc) {
			wordFreq[w]++
		}
	}
	if len(wordFreq) == 0 {
		return nil, errEmptyCorpus
	}

	// Each distinct word becomes a symbol sequence: runes + </w>.
	type entry struct {
		symbols []string
		freq    int
	}
	entries := make([]entry, 0, len(wordFreq))
	words := make([]string, 0, len(wordFreq))
	for w := range wordFreq {
		words = append(words, w)
	}
	sort.Strings(words) // deterministic iteration
	base := make(map[string]bool)
	for _, w := range words {
		var syms []string
		for _, r := range w {
			s := string(r)
			syms = append(syms, s)
			base[s] = true
		}
		syms = append(syms, endOfWord)
		entries = append(entries, entry{symbols: syms, freq: wordFreq[w]})
	}
	base[endOfWord] = true

	t := &Tokenizer{rank: make(map[[2]string]int), vocab: make(map[string]int)}
	addTok := func(s string) {
		if _, ok := t.vocab[s]; !ok {
			t.vocab[s] = len(t.tokens)
			t.tokens = append(t.tokens, s)
		}
	}
	baseSyms := make([]string, 0, len(base))
	for s := range base {
		baseSyms = append(baseSyms, s)
	}
	sort.Strings(baseSyms)
	for _, s := range baseSyms {
		addTok(s)
	}

	// Merge loop.
	for merges := 0; len(t.tokens) < cfg.VocabSize; merges++ {
		pairFreq := make(map[[2]string]int)
		for _, e := range entries {
			for i := 0; i+1 < len(e.symbols); i++ {
				pairFreq[[2]string{e.symbols[i], e.symbols[i+1]}] += e.freq
			}
		}
		best, bestFreq := [2]string{}, 0
		for p, f := range pairFreq {
			if f > bestFreq || (f == bestFreq && lessPair(p, best)) {
				best, bestFreq = p, f
			}
		}
		if bestFreq < cfg.MinPairFreq {
			break
		}
		merged := best[0] + best[1]
		t.rank[best] = merges
		addTok(merged)
		for i := range entries {
			entries[i].symbols = applyMerge(entries[i].symbols, best, merged)
		}
	}
	return t, nil
}

func lessPair(a, b [2]string) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func applyMerge(syms []string, pair [2]string, merged string) []string {
	out := syms[:0]
	for i := 0; i < len(syms); i++ {
		if i+1 < len(syms) && syms[i] == pair[0] && syms[i+1] == pair[1] {
			out = append(out, merged)
			i++
		} else {
			out = append(out, syms[i])
		}
	}
	return out
}

// encodeWord replays the learned merges on one word, greedily applying
// the lowest-rank applicable merge, exactly like training did.
func (t *Tokenizer) encodeWord(w string) []string {
	var syms []string
	for _, r := range w {
		syms = append(syms, string(r))
	}
	syms = append(syms, endOfWord)
	for {
		bestRank, bestAt := -1, -1
		for i := 0; i+1 < len(syms); i++ {
			if r, ok := t.rank[[2]string{syms[i], syms[i+1]}]; ok {
				if bestRank == -1 || r < bestRank {
					bestRank, bestAt = r, i
				}
			}
		}
		if bestAt == -1 {
			return syms
		}
		merged := syms[bestAt] + syms[bestAt+1]
		syms = append(syms[:bestAt+1], syms[bestAt+2:]...)
		syms[bestAt] = merged
	}
}

// CountTokens returns the number of BPE tokens in text — the unit the
// chat API meters usage in.
func (t *Tokenizer) CountTokens(text string) int {
	n := 0
	for _, w := range textkit.Words(text) {
		n += len(t.encodeWord(w))
	}
	return n
}
