package baselines

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/facet"
)

func taskQuestions(t *testing.T, n int) []string {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Size = n * 3
	cfg.Seed = 17
	cfg.JunkRate = 0
	cfg.DuplicateRate = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range pool {
		if len(out) == n {
			break
		}
		if p.Truth.Category == facet.Math || p.Truth.Category == facet.Reason {
			out = append(out, p.Text)
		}
	}
	return out
}

func TestNewAutoCoTValidation(t *testing.T) {
	qs := taskQuestions(t, 30)
	if _, err := NewAutoCoT(nil, DefaultAutoCoTConfig()); err == nil {
		t.Error("empty questions should fail")
	}
	cfg := DefaultAutoCoTConfig()
	cfg.Clusters = 0
	if _, err := NewAutoCoT(qs, cfg); err == nil {
		t.Error("zero clusters should fail")
	}
	cfg = DefaultAutoCoTConfig()
	cfg.DemoModel = "nope"
	if _, err := NewAutoCoT(qs, cfg); err == nil {
		t.Error("unknown demo model should fail")
	}
	cfg = DefaultAutoCoTConfig()
	cfg.MaxDemoWords = 2
	if _, err := NewAutoCoT(qs, cfg); err == nil {
		t.Error("tiny demo budget should fail")
	}
}

func TestAutoCoTBuildsClusteredDemos(t *testing.T) {
	qs := taskQuestions(t, 40)
	a, err := NewAutoCoT(qs, DefaultAutoCoTConfig())
	if err != nil {
		t.Fatal(err)
	}
	demos := a.demos
	if len(demos) == 0 || len(demos) > DefaultAutoCoTConfig().Clusters {
		t.Fatalf("demo count %d out of range", len(demos))
	}
	for _, d := range demos {
		if !strings.HasPrefix(d, "Q: ") || !strings.Contains(d, "\nA: ") {
			t.Fatalf("malformed demo: %q", d)
		}
	}
	if a.Name() != "Auto-CoT" {
		t.Error("name")
	}
}

func TestAutoCoTTransformShape(t *testing.T) {
	qs := taskQuestions(t, 40)
	a, err := NewAutoCoT(qs, DefaultAutoCoTConfig())
	if err != nil {
		t.Fatal(err)
	}
	prompt := "Solve x^2 - 5x + 6 = 0."
	out := a.Transform(prompt, "s")
	if !strings.Contains(out, prompt) {
		t.Fatal("prompt lost")
	}
	if !strings.Contains(out, a.demos[0]) {
		t.Fatal("demonstrations not prepended")
	}
	if !facet.DetectDirectives(out).Has(facet.Reasoning) {
		t.Fatal("CoT trigger missing")
	}
}

func TestAutoCoTDeterministic(t *testing.T) {
	qs := taskQuestions(t, 40)
	a, err := NewAutoCoT(qs, DefaultAutoCoTConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAutoCoT(qs, DefaultAutoCoTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(a.demos, "|") != strings.Join(b.demos, "|") {
		t.Fatal("demo construction not deterministic")
	}
}
