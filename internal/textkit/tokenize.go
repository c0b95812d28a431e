// Package textkit provides the low-level text primitives shared by every
// language-facing module in the PAS reproduction: tokenisation, n-gram
// extraction, casefolding, and small string utilities.
//
// The package is deliberately dependency-free and deterministic: the same
// input always produces the same tokens, which is what makes the simulated
// LLM substrate reproducible end to end.
package textkit

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single lexical unit produced by Tokenize. Tokens are
// lower-cased words, numbers, or single punctuation runes.
type Token string

// Tokenize splits text into lower-cased word, number, and punctuation
// tokens. It is Unicode-aware: any letter sequence forms a word token and
// any digit sequence forms a number token. Punctuation characters are
// emitted as single-rune tokens so that sentence structure survives
// tokenisation (the judge and the critic both rely on that).
func Tokenize(text string) []Token {
	tokens := make([]Token, 0, len(text)/5+1)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, Token(b.String()))
			b.Reset()
		}
	}
	var mode int // 0 none, 1 letters, 2 digits
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			if mode != 1 {
				flush()
				mode = 1
			}
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			if mode != 2 {
				flush()
				mode = 2
			}
			b.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
			mode = 0
		default:
			flush()
			mode = 0
			// ToLower also covers cased non-letters (circled letters and
			// similar symbols), keeping every token case-folded.
			tokens = append(tokens, Token(string(unicode.ToLower(r))))
		}
	}
	flush()
	return tokens
}

// Words returns only the word tokens of text, dropping numbers and
// punctuation. Most feature extraction works on words.
func Words(text string) []string {
	buf, ends := AppendWords(make([]byte, 0, len(text)), make([]int, 0, len(text)/6+1), text)
	all := string(buf)
	words := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		words[i] = all[start:end]
		start = end
	}
	return words
}

// AppendWords is Words without the strings: it appends the words of
// text to buf back to back, and each word's end offset in buf to ends.
// A word is a maximal run of letters, lower-cased rune by rune; every
// other rune (digit, space, punctuation, invalid UTF-8) only separates.
// That is exactly the word-token subset of Tokenize, because no rune
// outside the letters lower-cases into them (TestWordRule).
func AppendWords(buf []byte, ends []int, text string) ([]byte, []int) {
	inWord := false
	for _, r := range text {
		if unicode.IsLetter(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			inWord = true
		} else if inWord {
			ends = append(ends, len(buf))
			inWord = false
		}
	}
	if inWord {
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// Sentences splits text into sentences on terminal punctuation. It keeps
// the terminator attached to the sentence and trims surrounding space.
// Empty sentences are dropped.
func Sentences(text string) []string {
	var out []string
	var b strings.Builder
	for _, r := range text {
		b.WriteRune(r)
		if r == '.' || r == '!' || r == '?' || r == '\n' {
			s := strings.TrimSpace(b.String())
			if s != "" && s != "." && s != "!" && s != "?" {
				out = append(out, s)
			}
			b.Reset()
		}
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// WordNGrams returns the contiguous word n-grams of text joined by a
// single space. n must be >= 1; shorter texts yield no n-grams.
func WordNGrams(text string, n int) []string {
	words := Words(text)
	if n < 1 || len(words) < n {
		return nil
	}
	grams := make([]string, 0, len(words)-n+1)
	for i := 0; i+n <= len(words); i++ {
		grams = append(grams, strings.Join(words[i:i+n], " "))
	}
	return grams
}

// CharNGrams returns the character n-grams of the casefolded text,
// including word-boundary markers, in the style of fastText subword
// features. Spaces are normalised to a single '_' marker.
func CharNGrams(text string, n int) []string {
	folded := []rune("_" + strings.Join(Words(text), "_") + "_")
	if n < 1 || len(folded) < n {
		return nil
	}
	grams := make([]string, 0, len(folded)-n+1)
	for i := 0; i+n <= len(folded); i++ {
		grams = append(grams, string(folded[i:i+n]))
	}
	return grams
}

// WordCount reports the number of word tokens in text.
func WordCount(text string) int { return len(Words(text)) }

// Normalize lower-cases text and collapses runs of whitespace to single
// spaces, producing the canonical form used for deduplication keys.
func Normalize(text string) string {
	return strings.Join(strings.Fields(strings.ToLower(text)), " ")
}
