package humaneval

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/facet"
	"repro/internal/simllm"
)

func TestCategoriesShape(t *testing.T) {
	cats := Categories()
	if len(cats) != 8 {
		t.Fatalf("table 4 has 8 categories, got %d", len(cats))
	}
	seen := map[string]bool{}
	for _, c := range cats {
		if c.Name == "" || !c.Source.Valid() {
			t.Errorf("bad category %+v", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate category %s", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0, 1); err == nil {
		t.Error("empty pool should fail")
	}
	pool, err := NewPool(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 9 {
		t.Fatalf("pool size %d", len(pool))
	}
}

func TestRateRangeAndMonotonicity(t *testing.T) {
	pool, err := NewPool(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	prompt := "Explain how photosynthesis works and the mechanism behind it."
	good := "By way of background, photosynthesis converts light energy. Covering all aspects of photosynthesis, including edge conditions. It is established that the mechanism is verified. For example, consider the case of leaves."
	bad := "idk"
	for i, r := range pool {
		rg, rb := r.Rate(prompt, good), r.Rate(prompt, bad)
		if rg < 1 || rg > 5 || rb < 1 || rb > 5 {
			t.Fatalf("ratings out of range: %d %d", rg, rb)
		}
		if rg <= rb {
			t.Fatalf("rater %d rated bad (%d) >= good (%d)", i, rb, rg)
		}
	}
}

func TestRatersDisagree(t *testing.T) {
	pool, err := NewPool(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := simllm.MustModel(simllm.GPT35Turbo)
	prompt := "Give me advice on starting to run at 40."
	// Across a handful of responses, at least one must split the pool —
	// individual raters have personal thresholds and noise.
	disagreements := 0
	for i := 0; i < 8; i++ {
		resp := m.Respond(prompt, simllm.Options{Salt: fmt.Sprintf("r%d", i)})
		seen := map[int]bool{}
		for _, r := range pool {
			seen[r.Rate(prompt, resp)] = true
		}
		if len(seen) >= 2 {
			disagreements++
		}
	}
	if disagreements == 0 {
		t.Fatal("raters never disagree — pool has no diversity")
	}
}

func TestSummarize(t *testing.T) {
	sum, err := Summarize([]int{5, 4, 3, 2, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 6 {
		t.Fatalf("N = %d", sum.N)
	}
	if got := sum.FullMark; got != 2.0/6 {
		t.Errorf("FullMark = %v", got)
	}
	if got := sum.Availability; got != 4.0/6 {
		t.Errorf("Availability = %v", got)
	}
	if got := sum.Average; got != 20.0/6 {
		t.Errorf("Average = %v", got)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty ratings should fail")
	}
	if _, err := Summarize([]int{0}); err == nil {
		t.Error("rating 0 should fail")
	}
	if _, err := Summarize([]int{6}); err == nil {
		t.Error("rating 6 should fail")
	}
}

func TestCompareGSBMajority(t *testing.T) {
	pool, err := NewPool(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	prompt := "Explain the science of fermentation."
	strong := "By way of background, fermentation converts sugars. Covering all aspects of fermentation, including edge conditions. For example, consider the case of yogurt. It is established that the process is verified."
	weak := "Fermentation exists."
	g, err := CompareGSB(pool, prompt, strong, weak)
	if err != nil {
		t.Fatal(err)
	}
	if g.Good != 1 || g.Bad != 0 {
		t.Fatalf("GSB = %+v, want clear Good", g)
	}
	g2, err := CompareGSB(pool, prompt, weak, strong)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Bad != 1 {
		t.Fatalf("reversed GSB = %+v", g2)
	}
	if _, err := CompareGSB(nil, prompt, strong, weak); err == nil {
		t.Error("empty pool should fail")
	}
}

func TestGSBAddAndWinRate(t *testing.T) {
	var g GSB
	g.Add(GSB{Good: 3, Same: 1, Bad: 1})
	g.Add(GSB{Good: 1})
	if g.Good != 4 || g.Same != 1 || g.Bad != 1 {
		t.Fatalf("Add = %+v", g)
	}
	if wr := g.WinRate(); wr != 4.0/6 {
		t.Fatalf("WinRate = %v", wr)
	}
	if (GSB{}).WinRate() != 0 {
		t.Fatal("empty GSB winrate should be 0")
	}
}

func TestMeanSummaries(t *testing.T) {
	got := MeanSummaries([]Summary{
		{FullMark: 0.2, Average: 3, Availability: 0.8, N: 10},
		{FullMark: 0.4, Average: 4, Availability: 0.9, N: 10},
	})
	if math.Abs(got.FullMark-0.3) > 1e-9 || got.Average != 3.5 || got.N != 20 {
		t.Fatalf("mean = %+v", got)
	}
	if MeanSummaries(nil).N != 0 {
		t.Fatal("empty mean should be zero")
	}
}

// TestAugmentationImprovesHumanScores wires the §4.5 claim in miniature:
// PAS-style augmented responses earn better rubric scores than bare ones.
func TestAugmentationImprovesHumanScores(t *testing.T) {
	pool, err := NewPool(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := simllm.MustModel(simllm.GPT40613)
	prompts := []string{
		"Analyze the trade offs of remote work versus office work.",
		"Give me advice on negotiating a salary offer.",
		"Describe the physiology of high-altitude adaptation.",
	}
	var bare, augd []int
	for _, p := range prompts {
		aug := facet.RenderDirectives(facet.AnalyzePrompt(p).Needs.Top(2), "he")
		for i := 0; i < 10; i++ {
			salt := fmt.Sprintf("h%d", i)
			rb := m.Respond(p, simllm.Options{Salt: salt})
			ra := m.Respond(p+"\n"+aug, simllm.Options{Salt: salt})
			for _, r := range pool[:3] {
				bare = append(bare, r.Rate(p, rb))
				augd = append(augd, r.Rate(p, ra))
			}
		}
	}
	sb, err := Summarize(bare)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Summarize(augd)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Average <= sb.Average {
		t.Fatalf("augmented avg %.2f <= bare %.2f", sa.Average, sb.Average)
	}
}
