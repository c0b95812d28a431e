package tokenizer

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/textkit"
)

func trainingCorpus(t testing.TB) []string {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Size = 1500
	cfg.Seed = 5
	pool, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(pool))
	for i, p := range pool {
		texts[i] = p.Text
	}
	return texts
}

func trained(t testing.TB) *Tokenizer {
	t.Helper()
	tok, err := Train(trainingCorpus(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train([]string{"hello"}, Config{VocabSize: 4, MinPairFreq: 1}); err == nil {
		t.Error("tiny vocab should fail")
	}
	if _, err := Train([]string{"hello"}, Config{VocabSize: 100, MinPairFreq: 0}); err == nil {
		t.Error("MinPairFreq 0 should fail")
	}
	if _, err := Train(nil, DefaultConfig()); err != errEmptyCorpus {
		t.Error("empty corpus should fail with errEmptyCorpus")
	}
	if _, err := Train([]string{"!!!", "???"}, DefaultConfig()); err != errEmptyCorpus {
		t.Error("punctuation-only corpus should fail")
	}
}

func TestVocabBounded(t *testing.T) {
	tok := trained(t)
	if tok.VocabSize() > DefaultConfig().VocabSize {
		t.Fatalf("vocab %d exceeds configured %d", tok.VocabSize(), DefaultConfig().VocabSize)
	}
	if tok.VocabSize() < 100 {
		t.Fatalf("vocab suspiciously small: %d", tok.VocabSize())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tok := trained(t)
	texts := []string{
		"write a python function that implements a rate limiter",
		"explain how photosynthesis works",
		"translate good morning into french",
	}
	for _, text := range texts {
		ids := tok.Encode(text)
		if len(ids) == 0 {
			t.Fatalf("no tokens for %q", text)
		}
		got := tok.Decode(ids)
		if got != text {
			t.Errorf("round trip: %q -> %q", text, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	tok := trained(t)
	// For any ASCII-words text made of training-corpus letters, decode
	// must reproduce the normalised words.
	f := func(a, b, c uint8) bool {
		words := []string{"write", "function", "explain", "translate", "summarize", "the", "ideas"}
		text := words[int(a)%len(words)] + " " + words[int(b)%len(words)] + " " + words[int(c)%len(words)]
		return tok.Decode(tok.Encode(text)) == text
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommonWordsCompress(t *testing.T) {
	tok := trained(t)
	// A frequent corpus word should need far fewer tokens than letters.
	n := tok.CountTokens("function")
	if n > 4 {
		t.Fatalf("'function' took %d tokens; BPE should compress frequent words", n)
	}
	// A rare letter jumble should stay near character level.
	m := tok.CountTokens("zqxvkj")
	if m < 4 {
		t.Fatalf("rare jumble compressed too well: %d tokens", m)
	}
}

func TestCountTokensMatchesEncode(t *testing.T) {
	tok := trained(t)
	text := "summarize this long article about coral reefs into key points"
	if got, want := tok.CountTokens(text), len(tok.EncodeTokens(text)); got != want {
		t.Fatalf("CountTokens %d != len(EncodeTokens) %d", got, want)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := trained(t)
	b := trained(t)
	text := "analyze the trade offs of remote work versus office work"
	ai, bi := a.Encode(text), b.Encode(text)
	if len(ai) != len(bi) {
		t.Fatal("training not deterministic")
	}
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestUnknownCharactersSkipped(t *testing.T) {
	tok, err := Train([]string{"aa ab ba bb aa ab"}, Config{VocabSize: 32, MinPairFreq: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := tok.Encode("aa zz")
	if got := tok.Decode(ids); got != "aa" {
		t.Fatalf("unknown chars should drop: got %q", got)
	}
}

func TestDecodeIgnoresBadIDs(t *testing.T) {
	tok := trained(t)
	if got := tok.Decode([]int{-1, 1 << 30}); got != "" {
		t.Fatalf("bad ids should decode to nothing, got %q", got)
	}
}

func BenchmarkTrain(b *testing.B) {
	texts := trainingCorpus(b)
	cfg := Config{VocabSize: 512, MinPairFreq: 2}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(texts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	tok := trained(b)
	text := "write a python function that implements an LRU cache and explain the algorithm"
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok.Encode(text)
	}
}

// FuzzEncodeDecode: encoding arbitrary text must never panic, and
// decoding the result must reproduce exactly the in-vocabulary words.
func FuzzEncodeDecode(f *testing.F) {
	tok, err := Train([]string{
		"write a python function to sort a list quickly",
		"explain how tides form and why they matter",
		"translate good morning into french please",
	}, Config{VocabSize: 256, MinPairFreq: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{"", "write python", "zzz qqq", "a\x00b", "sort the list"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ids := tok.Encode(s)
		for _, id := range ids {
			if id < 0 || id >= tok.VocabSize() {
				t.Fatalf("id %d out of vocab", id)
			}
		}
		_ = tok.Decode(ids)
		if tok.CountTokens(s) < 0 {
			t.Fatal("negative token count")
		}
	})
}

// DefaultConfig returns a vocabulary suitable for the synthetic corpus.
func DefaultConfig() Config { return Config{VocabSize: 2048, MinPairFreq: 2} }

// VocabSize returns the number of known tokens.
func (t *Tokenizer) VocabSize() int { return len(t.tokens) }

// Encode tokenises text into vocabulary ids. Unknown symbols (characters
// never seen in training) are skipped, like an <unk> drop.
func (t *Tokenizer) Encode(text string) []int {
	var ids []int
	for _, w := range textkit.Words(text) {
		for _, tok := range t.encodeWord(w) {
			if id, ok := t.vocab[tok]; ok {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// EncodeTokens returns the subword strings rather than ids, for
// inspection and tests.
func (t *Tokenizer) EncodeTokens(text string) []string {
	var out []string
	for _, w := range textkit.Words(text) {
		out = append(out, t.encodeWord(w)...)
	}
	return out
}

// Decode reassembles ids into text. Word boundaries come from the </w>
// markers; output is lower-case space-joined words (the tokenizer, like
// the rest of the text substrate, is casefolding).
func (t *Tokenizer) Decode(ids []int) string {
	var b strings.Builder
	for _, id := range ids {
		if id < 0 || id >= len(t.tokens) {
			continue
		}
		b.WriteString(t.tokens[id])
	}
	return strings.TrimSpace(strings.ReplaceAll(b.String(), endOfWord, " "))
}
