package simllm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/facet"
)

// testShots is a full few-shot prompt: the paper uses 4-5 golden
// examples per category.
const testShots = 4

func TestGenerateComplementDeterministic(t *testing.T) {
	m := MustModel(Qwen27B)
	p := "Explain the science of fermentation."
	if m.GenerateComplement(p, testShots, "s1") != m.GenerateComplement(p, testShots, "s1") {
		t.Fatal("not deterministic for fixed salt")
	}
}

func TestGenerateComplementUsuallyOnTarget(t *testing.T) {
	m := MustModel(GPT4Turbo)
	prompts := []string{
		"Write a python function that implements an LRU cache.",
		"Explain the history of the silk road.",
		"Give me advice on negotiating a salary offer.",
		"Analyze the trade offs of monolith versus microservices.",
	}
	good := 0
	total := 0
	for _, p := range prompts {
		needs := facet.AnalyzePrompt(p).Needs
		for i := 0; i < 25; i++ {
			aug := m.GenerateComplement(p, testShots, fmt.Sprintf("g%d", i))
			total++
			dirs := facet.DetectDirectives(aug)
			if facet.DetectAnswerLeak(aug) || dirs.Len() == 0 {
				continue
			}
			onTarget := false
			for _, f := range dirs.Facets() {
				if needs[f] > 0.4 {
					onTarget = true
				}
			}
			if onTarget {
				good++
			}
		}
	}
	rate := float64(good) / float64(total)
	if rate < 0.7 {
		t.Fatalf("on-target rate = %.2f, want >= 0.7", rate)
	}
}

func TestGenerateComplementHasDefectsWithoutGolden(t *testing.T) {
	m := MustModel(Qwen27B)
	defectsWith, defectsWithout := 0, 0
	prompts := []string{
		"Briefly summarize this long article about coral reefs.",
		"Briefly, what is the capital of australia?",
		"Briefly explain how vaccines work.",
		"Hello! How is your morning going?",
	}
	for _, p := range prompts {
		for i := 0; i < 50; i++ {
			salt := fmt.Sprintf("d%d", i)
			if isDefective(p, m.GenerateComplement(p, testShots, salt)) {
				defectsWith++
			}
			if isDefective(p, m.GenerateComplement(p, 0, salt)) {
				defectsWithout++
			}
		}
	}
	if defectsWithout <= defectsWith {
		t.Fatalf("golden guidance should reduce defects: with=%d without=%d", defectsWith, defectsWithout)
	}
	if defectsWith == 0 {
		t.Fatal("raw generation should still produce some defects (the critic needs work to do)")
	}
}

func isDefective(prompt, aug string) bool {
	a := facet.AnalyzePrompt(prompt)
	dirs := facet.DetectDirectives(aug)
	return facet.DetectAnswerLeak(aug) ||
		len(facet.ConflictingDirectives(a, dirs)) > 0 ||
		(dirs.Len() >= 4 && a.Complexity < 1)
}

func TestGenerateComplementAddsTrapWarning(t *testing.T) {
	m := MustModel(GPT4Turbo)
	p := "If there are 10 birds on a tree and one is shot dead, how many birds are on the ground?"
	warned := 0
	for i := 0; i < 30; i++ {
		aug := m.GenerateComplement(p, testShots, fmt.Sprintf("w%d", i))
		if facet.DetectDirectives(aug).Has(facet.TrapAware) {
			warned++
		}
	}
	if warned < 24 {
		t.Fatalf("trap prompts should almost always get the vigilance directive: %d/30", warned)
	}
}

func TestCritiqueCatchesRenderedDefects(t *testing.T) {
	m := MustModel(GPT4Turbo)
	prompt := "Briefly summarize this long article about coral reefs."
	cases := map[string]string{
		"leak":     facet.RenderAnswerLeak("v1"),
		"conflict": facet.RenderConflicting(facet.Conciseness, "v2"),
		"empty":    "hmm interesting question",
	}
	for name, bad := range cases {
		caught := 0
		for i := 0; i < 30; i++ {
			// vary prompt suffix to vary the accuracy draw
			v := m.CritiquePair(prompt+strings.Repeat(" ", i%5), bad)
			if !v.Correct {
				caught++
			}
		}
		if caught < 22 {
			t.Errorf("defect %q caught only %d/30 times", name, caught)
		}
	}
}

func TestCritiquePassesCleanPairs(t *testing.T) {
	m := MustModel(GPT4Turbo)
	prompt := "Explain the history of the silk road."
	aug := facet.RenderDirectives([]facet.Facet{facet.Context, facet.Completeness}, "clean")
	passed := 0
	for i := 0; i < 30; i++ {
		if m.CritiquePair(prompt+strings.Repeat(" ", i%7), aug).Correct {
			passed++
		}
	}
	if passed < 24 {
		t.Fatalf("clean pair rejected too often: passed %d/30", passed)
	}
}

func TestCritiqueRejectsOffTarget(t *testing.T) {
	m := MustModel(GPT4Turbo)
	// A chitchat greeting does not need safety caveats and planning.
	prompt := "Hello! How is your morning going?"
	offTarget := facet.RenderDirectives([]facet.Facet{facet.Safety, facet.Planning}, "off")
	rejected := 0
	for i := 0; i < 30; i++ {
		if !m.CritiquePair(prompt+strings.Repeat(" ", i%7), offTarget).Correct {
			rejected++
		}
	}
	if rejected < 20 {
		t.Fatalf("off-target aug rejected only %d/30 times", rejected)
	}
}

func BenchmarkRespond(b *testing.B) {
	m := MustModel(GPT4Turbo)
	prompt := "Describe the history and mechanism of how blood pressure regulation works."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Respond(prompt, Options{Salt: "bench"})
	}
}

func BenchmarkGenerateComplement(b *testing.B) {
	m := MustModel(Qwen27B)
	prompt := "Write a python function that implements a rate limiter."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.GenerateComplement(prompt, testShots, "bench")
	}
}
