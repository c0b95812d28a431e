package textkit

import (
	"slices"
	"testing"
	"unicode/utf8"
)

// FuzzTokenize exercises the tokenizer on arbitrary byte strings: it must
// never panic, always lower-case word tokens, and never invent characters.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "10 birds on a tree!", "Café, münchen?",
		"a\x00b", "\xff\xfe", "multi\nline\ttext", "....", "ALLCAPS 123",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if len(tok) == 0 {
				t.Fatal("empty token")
			}
		}
		// Words is the letters-only subset of Tokenize, found by its own scan.
		if got, want := Words(s), tokenizeWords(s); !slices.Equal(got, want) {
			t.Fatalf("Words = %q, the word tokens of Tokenize are %q", got, want)
		}
		_ = CharNGrams(s, 3)
	})
}

// FuzzHashStability: hashing any string with any seed is total and
// deterministic.
func FuzzHashStability(f *testing.F) {
	f.Add("", uint64(0))
	f.Add("abc", uint64(7))
	f.Fuzz(func(t *testing.T, s string, seed uint64) {
		if Hash64Seed(s, seed) != Hash64Seed(s, seed) {
			t.Fatal("hash not deterministic")
		}
		u := Unit(s, seed)
		if u < 0 || u >= 1 {
			t.Fatalf("unit out of range: %v", u)
		}
		if !utf8.ValidString(s) {
			return // bucket on invalid UTF-8 still must not panic (checked below)
		}
		if b := Bucket(s, seed, 64); b < 0 || b >= 64 {
			t.Fatalf("bucket out of range: %d", b)
		}
	})
}
