package textkit

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []Token
	}{
		{"simple", "Hello world", []Token{"hello", "world"}},
		{"punct", "Hi, there!", []Token{"hi", ",", "there", "!"}},
		{"numbers", "10 birds on 1 tree", []Token{"10", "birds", "on", "1", "tree"}},
		{"mixed alnum", "gpt4 turbo", []Token{"gpt", "4", "turbo"}},
		{"empty", "", nil},
		{"spaces only", "   \t\n ", nil},
		{"unicode", "Café münchen", []Token{"café", "münchen"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Tokenize(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("token %d = %q, want %q", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestWordsDropsPunctuationAndNumbers(t *testing.T) {
	got := Words("Write 3 tests, quickly!")
	want := []string{"write", "tests", "quickly"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestCharNGramsBoundaryMarkers(t *testing.T) {
	grams := CharNGrams("ab", 3)
	if len(grams) != 2 || grams[0] != "_ab" || grams[1] != "ab_" {
		t.Fatalf("CharNGrams = %v", grams)
	}
}

// tokenizeWords is the definition AppendWords is held to: the tokens of
// Tokenize that consist of letters only.
func tokenizeWords(text string) []string {
	words := []string{}
	for _, tok := range Tokenize(text) {
		if strings.IndexFunc(string(tok), func(r rune) bool { return !unicode.IsLetter(r) }) < 0 {
			words = append(words, string(tok))
		}
	}
	return words
}

// TestWordRule: Words scans for letter runs directly, where it used to
// filter Tokenize's output. The two agree because lower-casing never
// moves a rune into or out of the letters; check that for every rune.
func TestWordRule(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.IsLetter(r) != unicode.IsLetter(unicode.ToLower(r)) {
			t.Fatalf("%U: letter=%v but its lower case %U: letter=%v",
				r, unicode.IsLetter(r), unicode.ToLower(r), unicode.IsLetter(unicode.ToLower(r)))
		}
	}
	for _, text := range []string{
		"", "  ", "Write 3 tests, quickly!", "gpt4 turbo", "in 5 depth", "a1b2c3", "Café MÜNCHEN ǅ İ",
		"aⒷc", "x²", "tl;dr", "wh\xffy", "\xff\xfe", "trailing word", "你好 world", "e\u0301 combining",
	} {
		got, want := Words(text), tokenizeWords(text)
		if !slices.Equal(got, want) {
			t.Errorf("Words(%q) = %q, the word tokens of Tokenize are %q", text, got, want)
		}
		if WordCount(text) != len(want) {
			t.Errorf("WordCount(%q) = %d, want %d", text, WordCount(text), len(want))
		}
	}
}

func TestHasherMatchesConcatenation(t *testing.T) {
	f := func(a, b, c string, seed uint64) bool {
		h := NewHasher(seed).Add(a).Add(b).Add(c)
		s := a + b + c
		return h.sum() == Hash64Seed(s, seed) && h.Unit() == Unit(s, seed) && h.Bucket(7) == Bucket(s, seed, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashDeterminismAndSpread(t *testing.T) {
	if Hash64("abc") != Hash64("abc") {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64Seed("abc", 1) == Hash64Seed("abc", 2) {
		t.Fatal("seeds should separate hash spaces")
	}
	// Spread: buckets of sequential keys should not all collide.
	seen := map[int]bool{}
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		seen[Bucket(k, 7, 64)] = true
	}
	if len(seen) < 5 {
		t.Fatalf("poor bucket spread: %d distinct of 8", len(seen))
	}
}

func TestUnitRange(t *testing.T) {
	f := func(s string, seed uint64) bool {
		u := Unit(s, seed)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignIsUnbiasedEnough(t *testing.T) {
	pos := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if Sign(strings.Repeat("x", i%31)+string(rune('a'+i%26))+strings.Join(strings.Fields(strings.ToLower(string(rune(i)))), " "), 3) > 0 {
			pos++
		}
	}
	if pos < n/3 || pos > 2*n/3 {
		t.Fatalf("sign heavily biased: %d/%d positive", pos, n)
	}
}

func TestTokenizeLowercasesCasedSymbols(t *testing.T) {
	// Circled letters are symbols, not letters, so they take the
	// punctuation path — which must still case-fold them ('Ⓢ' has a
	// lowercase mapping even though unicode.IsLetter is false).
	toks := Tokenize("aⒷc")
	want := []Token{"a", "ⓑ", "c"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %q, want %q", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %q, want %q", toks, want)
		}
	}
}

func TestTokenizeNeverPanicsAndLowercases(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if string(tok) != strings.ToLower(string(tok)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("The quick brown fox jumps over the lazy dog. ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}
