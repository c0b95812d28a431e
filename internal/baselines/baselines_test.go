package baselines

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/facet"
	"repro/internal/simllm"
	"repro/internal/textkit"
)

func TestNone(t *testing.T) {
	if (None{}).Transform("hello", "s") != "hello" {
		t.Error("None must be identity")
	}
	if (None{}).Name() != "None" {
		t.Error("None name")
	}
}

func TestStatic(t *testing.T) {
	s := Static{MethodName: "OPRO", Instruction: "Please be specific."}
	if s.Name() != "OPRO" {
		t.Error("name")
	}
	if got := s.Transform("p", "x"); got != "p\nPlease be specific." {
		t.Errorf("Transform = %q", got)
	}
	empty := Static{MethodName: "X"}
	if empty.Transform("p", "x") != "p" {
		t.Error("empty instruction must be identity")
	}
}

func TestNewBPOValidation(t *testing.T) {
	if _, err := NewBPO("no-such-model"); err == nil {
		t.Fatal("unknown base should fail")
	}
	b, err := NewBPO(simllm.LLaMA27B)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "BPO" {
		t.Error("name")
	}
}

func TestBPORewritesRatherThanAppends(t *testing.T) {
	b := MustBPO(simllm.LLaMA27B)
	prompt := "Describe the history and mechanism of how blood pressure regulation works in detail."
	rewrites := 0
	for i := 0; i < 30; i++ {
		out := b.Transform(prompt, fmt.Sprint(i))
		if out == "" {
			t.Fatal("empty rewrite")
		}
		if !strings.HasPrefix(out, prompt) {
			rewrites++ // original text was altered, not merely suffixed
		}
	}
	if rewrites < 10 {
		t.Fatalf("BPO almost never rewrote the prompt: %d/30", rewrites)
	}
}

func TestBPOSometimesDropsContentWords(t *testing.T) {
	b := MustBPO(simllm.LLaMA27B)
	prompt := "Analyze the trade offs of monolith versus microservices for a startup team."
	contentLoss := 0
	for i := 0; i < 40; i++ {
		out := strings.ToLower(b.Transform(prompt, fmt.Sprint(i)))
		for _, w := range []string{"monolith", "microservices", "startup"} {
			if !strings.Contains(out, w) {
				contentLoss++
				break
			}
		}
	}
	if contentLoss == 0 {
		t.Fatal("BPO never lost content — instability mechanism missing")
	}
	if contentLoss > 35 {
		t.Fatalf("BPO loses content almost always (%d/40) — too destructive", contentLoss)
	}
}

func TestBPODeterministic(t *testing.T) {
	b := MustBPO(simllm.LLaMA27B)
	p := "Summarize this long article about coral reefs."
	if b.Transform(p, "s") != b.Transform(p, "s") {
		t.Fatal("not deterministic")
	}
}

func TestBPOCanConflictWithConstraints(t *testing.T) {
	b := MustBPO(simllm.LLaMA27B)
	prompt := "Briefly summarize this long article about coral reefs."
	conflicts := 0
	for i := 0; i < 60; i++ {
		out := b.Transform(prompt, fmt.Sprint(i))
		a := facet.AnalyzePrompt(prompt)
		dirs := facet.DetectDirectives(out)
		if len(facet.ConflictingDirectives(a, dirs)) > 0 {
			conflicts++
		}
	}
	if conflicts == 0 {
		t.Fatal("BPO never conflicts with constraints — it has no critic, some conflicts expected")
	}
}

func TestMethodsTable(t *testing.T) {
	ms := Methods()
	if len(ms) != 6 {
		t.Fatalf("table 3 has 6 rows, got %d", len(ms))
	}
	var pas, bpo Info
	for _, m := range ms {
		switch m.Name {
		case "PAS":
			pas = m
		case "BPO":
			bpo = m
		}
	}
	if !pas.NoHumanLabor || !pas.LLMAgnostic || !pas.TaskAgnostic {
		t.Fatalf("PAS row wrong: %+v", pas)
	}
	if bpo.NoHumanLabor {
		t.Fatal("BPO requires human labour in Table 3")
	}
	if pas.DataConsumption != 9000 || bpo.DataConsumption != 14000 {
		t.Fatal("data consumption figures wrong")
	}
}

func TestEfficiencyRatios(t *testing.T) {
	want := map[string]float64{"BPO": 14000.0 / 9000, "PPO": 77000.0 / 9000, "DPO": 170000.0 / 9000}
	for _, m := range Methods() {
		if w, ok := want[m.Name]; ok {
			got, err := Efficiency(m)
			if err != nil {
				t.Fatal(err)
			}
			if got != w {
				t.Errorf("%s efficiency = %v, want %v", m.Name, got, w)
			}
		}
		if m.Name == "OPRO" {
			if _, err := Efficiency(m); err == nil {
				t.Error("OPRO has no comparable consumption; Efficiency should fail")
			}
		}
	}
}

// trainingScorer scores an instruction by how many of the wanted facets
// it demands, minus a length penalty — a cheap stand-in for "accuracy on
// the task's training set".
func trainingScorer(want ...facet.Facet) Scorer {
	return func(instruction string) float64 {
		dirs := facet.DetectDirectives(instruction)
		score := 0.0
		for _, f := range want {
			if dirs.Has(f) {
				score += 1
			}
		}
		return score - 0.1*float64(dirs.Len())
	}
}

func TestOptimizeOPROFindsGoodInstruction(t *testing.T) {
	res, err := OptimizeOPRO(trainingScorer(facet.Reasoning, facet.Accuracy), 30, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirs := facet.DetectDirectives(res.Best.Instruction)
	if !dirs.Has(facet.Reasoning) || !dirs.Has(facet.Accuracy) {
		t.Fatalf("OPRO missed target facets: %q", res.Best.Instruction)
	}
	if res.ScorerCalls < 30 {
		t.Fatalf("OPRO cost accounting wrong: %d calls", res.ScorerCalls)
	}
	if res.Best.MethodName != "OPRO" {
		t.Error("method name")
	}
}

func TestOptimizeProTeGiFindsGoodInstruction(t *testing.T) {
	res, err := OptimizeProTeGi(trainingScorer(facet.Structure, facet.Examples), 12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirs := facet.DetectDirectives(res.Best.Instruction)
	if !dirs.Has(facet.Structure) || !dirs.Has(facet.Examples) {
		t.Fatalf("ProTeGi missed target facets: %q", res.Best.Instruction)
	}
	if res.Score <= 0 {
		t.Fatalf("score = %v", res.Score)
	}
}

func TestOptimizerValidation(t *testing.T) {
	if _, err := OptimizeOPRO(nil, 5, 5, 1); err == nil {
		t.Error("nil scorer should fail")
	}
	if _, err := OptimizeOPRO(trainingScorer(), 0, 5, 1); err == nil {
		t.Error("0 iterations should fail")
	}
	if _, err := OptimizeProTeGi(nil, 5, 5, 1); err == nil {
		t.Error("nil scorer should fail")
	}
	if _, err := OptimizeProTeGi(trainingScorer(), 5, 0, 1); err == nil {
		t.Error("0 beam should fail")
	}
}

func TestRejoinReadable(t *testing.T) {
	toks := textkit.Tokenize("Hello, world! How are you?")
	strs := make([]string, len(toks))
	for i, tok := range toks {
		strs[i] = string(tok)
	}
	got := rejoin(strs)
	if got != "hello, world! how are you?" {
		t.Fatalf("rejoin = %q", got)
	}
}

func BenchmarkBPOTransform(b *testing.B) {
	bp := MustBPO(simllm.LLaMA27B)
	prompt := "Describe the history and mechanism of how blood pressure regulation works."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bp.Transform(prompt, "bench")
	}
}

// MustBPO is NewBPO for the fixed roster in experiments.
func MustBPO(baseModel string) *BPO {
	b, err := NewBPO(baseModel)
	if err != nil {
		panic(err)
	}
	return b
}
