package sft

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/simllm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/complement.golden from the current code")

const goldenPath = "testdata/complement.golden"

// goldenModels are the two models complement.golden was recorded with:
// "clean" is the serving model of the benchmark and the daemons' tests
// (Qwen2-7B on D_golden), whose learned defect rates are all zero;
// "dirty" is a weak base on a defect-laden set, so the leak, conflict,
// over-reach, flub and garble branches of Complement are recorded too.
func goldenModels(t *testing.T) map[string]*Model {
	t.Helper()
	clean, err := Train(simllm.MustModel(simllm.Qwen27B), cleanDataset(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Train(simllm.MustModel(simllm.LLaMA27B), dirtyDataset(t, 0.3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Model{"clean": clean, "dirty": dirty}
}

func modelSHA(t *testing.T, m *Model) string {
	t.Helper()
	b, err := m.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenPrompts is the recorded input set. It runs only under -update;
// the replay reads prompts back from the file, so a later change to the
// corpus templates cannot fail this test.
func goldenPrompts(t *testing.T) []string {
	t.Helper()
	var out []string
	seen := map[string]bool{}
	add := func(ss ...string) {
		for _, s := range ss {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}

	// All 14 category templates with qualifiers, personas, constraint
	// phrases, trap frames, paraphrases and junk.
	cfg := corpus.DefaultConfig()
	cfg.Size, cfg.Seed = 700, 16
	pool, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cats := map[facet.Category]bool{}
	for _, p := range pool {
		add(p.Text)
		if !p.Truth.Junk {
			cats[p.Truth.Category] = true
		}
	}
	if len(cats) != facet.CategoryCount {
		t.Fatalf("corpus sample covers %d of %d categories", len(cats), facet.CategoryCount)
	}
	golden := dataset.Golden()
	for _, c := range facet.Categories() {
		for _, p := range golden[c] {
			add(p.Prompt)
		}
	}
	for _, tr := range facet.Traps() {
		add(tr.Cue,
			"Here is a riddle: "+tr.Cue+" — what is the answer?",
			strings.ToUpper(tr.Cue)+"?",
			"Briefly: "+strings.ToUpper(tr.Cue[:1])+tr.Cue[1:]+". Explain your reasoning step by step.")
	}
	// Shaped like the benchmark's prompts: ~25 words, one clause each of
	// topic, audience, qualifier and format.
	add(
		"Explain how consistent hashing works and describe the mechanism to a new graduate, keeping the scope small; answer in short paragraphs.",
		"Summarize the long report about coral reef bleaching for a busy manager into key points, with numbers where they help; end with a one line recap.",
		"What is the best way to get better at salary negotiation? Give advice and tips to a first time founder, without skipping steps; number the main points.",
		"Analyze the trade offs of monolith migration for a support team and compare the pros and cons, for a sceptical reader; lead with the conclusion.",
	)
	// Word rules: digits and punctuation split words and vanish, so a
	// phrase may match across them; whitespace runs collapse; case folds
	// per rune; a phrase may end at the last word.
	add(
		"", " ", "\t\n", "?!...", "¿¡…—«»", "123 456", "x",
		"in 5 depth", "in depth", "in-depth", "in\tdepth", "in  depth", "in, depth.", "indepth", "depth in",
		"Cover it in9depth", "one 1 sentence", "ONE SENTENCE", "one sentences", "answer in one sentence",
		"step2step", "step by step", "STEP", "steps step", "example examples", "examples example example",
		"tl;dr", "TLDR please", "tldr", "Tl;Dr: summary",
		"BRIEFLY Explain IN DEPTH Why the Sky is Blue", "bRiEfLy, wHy?", "WHY WHY WHY why",
		"What is the exact, specific, concrete format of the table? List all sections.",
		"Keep a formal tone. Keep a casual tone. Keep it short, concise, quick.",
		"Is it safe? What is the health risk, the medical risk and the legal danger?",
		"plan strategy approach roadmap steps prove why derive deduce reason logic step",
		"you are what you are if then birds trick",
		"blood pressure works: explain history science describe mechanism physiology",
		"Explique brièvement el MÉTODO científico, paso a paso, with an example",
		"Ελληνικά: ΓΙΑΤΊ why ΠΏΣ how", "你好，请简要解释 summary 一下", "日本語でbrieflyお願いします",
		"İstanbul'da why", "ǅ ǆ Ǆ list", "ﬁnd the table", "café—why?—naïve", "Straße STRASSE straße",
		"whý accent", "éxample example", "aⒷc list", "x²+y² = z² solve", "½ of the sum",
		"\xff\xfe why", "wh\xffy", "list\x00table", "a\xc0\xafb format", string([]byte{0xed, 0xa0, 0x80})+" outline",
		"months have 28 days", "Months Have 28 Days", "months have 28  days", "months have 28\ndays",
		"marry his widow's sister", "marry his widow’s sister", "MARRY HIS WIDOW'S SISTER, may he?",
		"a lamp a stove and a candle and only one match", "a lamp, a stove and a candle and only one match",
		strings.Repeat("why ", 60), strings.Repeat("all everything detailed ", 30)+"briefly",
	)
	return out
}

func renderGolden(t *testing.T, models map[string]*Model) []byte {
	t.Helper()
	var b strings.Builder
	for _, name := range []string{"clean", "dirty"} {
		b.WriteString("model\t" + name + "\t" + modelSHA(t, models[name]) + "\n")
	}
	record := func(name, salt, p string) {
		b.WriteString(name + "\t" + salt + "\t" + strconv.Quote(p) + "\t" +
			strconv.Quote(models[name].Complement(p, salt)) + "\n")
	}
	for _, p := range goldenPrompts(t) {
		record("clean", "golden-a", p)
		record("clean", "golden-b", p)
		record("dirty", "golden-a", p)
	}
	return []byte(b.String())
}

// TestComplementGolden replays testdata/complement.golden, recorded at
// the last commit whose AnalyzePrompt made 26 CountLexiconHits passes:
// M_p(prompt, salt) and the trained model's bytes must not move. The
// benchmark's oracle recomputes M_p with the code under test, so it
// cannot see semantic drift; this file can. Regenerate with
// `go test ./internal/sft -run TestComplementGolden -update` only when a
// change to M_p's output is the point of the PR.
func TestComplementGolden(t *testing.T) {
	models := goldenModels(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, renderGolden(t, models), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	prompts := map[string]bool{}
	salts := map[string]bool{}
	shas, bad := 0, 0
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Split(line, "\t")
		switch {
		case len(f) == 3 && f[0] == "model" && models[f[1]] != nil:
			shas++
			if got := modelSHA(t, models[f[1]]); got != f[2] {
				t.Errorf("line %d: model %s serialises to sha256 %s, golden %s", i+1, f[1], got, f[2])
			}
		case len(f) == 4 && models[f[0]] != nil:
			m := models[f[0]]
			prompt, perr := strconv.Unquote(f[2])
			want, werr := strconv.Unquote(f[3])
			if perr != nil || werr != nil {
				t.Fatalf("line %d: bad quoting: %v %v", i+1, perr, werr)
			}
			prompts[prompt], salts[f[1]] = true, true
			if got := m.Complement(prompt, f[1]); got != want {
				t.Errorf("line %d: %s.Complement(%q, %q)\n got %q\nwant %q", i+1, f[0], prompt, f[1], got, want)
				if bad++; bad == 10 {
					t.Fatal("stopping after 10 mismatches")
				}
			}
		default:
			t.Fatalf("line %d: malformed record %q", i+1, line)
		}
	}
	if shas != 2 || len(prompts) < 500 || len(salts) < 2 {
		t.Fatalf("golden holds %d model hashes, %d prompts, %d salts; want 2, >= 500, >= 2", shas, len(prompts), len(salts))
	}
}

// TestComplementAllocations holds off the pattern this path once had —
// ~900 allocations per call, from re-tokenising the prompt per lexicon
// and concatenating a string per draw — without needing the benchmark.
func TestComplementAllocations(t *testing.T) {
	m := goldenModels(t)["clean"]
	// 25 words, shaped like the benchmark's prompts.
	const prompt = "Explain how consistent hashing works and describe the mechanism to a new graduate, keeping the scope small and the tone neutral; answer in short paragraphs."
	if n := len(strings.Fields(prompt)); n != 25 {
		t.Fatalf("prompt has %d words, want 25", n)
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Complement(prompt, "pasperf") }); allocs > 16 {
		t.Errorf("Complement makes %v allocations per call on a 25-word prompt, want <= 16", allocs)
	}
}
