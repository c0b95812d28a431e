package evalbench

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/facet"
	"repro/internal/humaneval"
	"repro/internal/simllm"
)

// CategoryEval is one row of Table 4 plus its Figure 1 GSB tally.
type CategoryEval struct {
	Category string
	// Baseline and PAS are the Table 4 metric triples.
	Baseline, PAS humaneval.Summary
	// GSB compares PAS (A) against the baseline (B) per prompt.
	GSB humaneval.GSB
}

// HumanStudyReport reproduces Table 4 and Figure 1(b).
type HumanStudyReport struct {
	MainModel  string
	Categories []CategoryEval
}

// HumanStudy runs the §4.5 evaluation: per category, the rater pool
// scores the main model's bare and PAS-augmented responses.
func (a *Artifacts) HumanStudy() (*HumanStudyReport, error) {
	nPrompts := a.Options.HumanPrompts
	if nPrompts < 1 {
		return nil, fmt.Errorf("evalbench: HumanPrompts must be >= 1, got %d", nPrompts)
	}
	nRaters := a.Options.Raters
	if nRaters < 1 {
		return nil, fmt.Errorf("evalbench: Raters must be >= 1, got %d", nRaters)
	}
	mainName := a.Options.HumanMainModel
	if mainName == "" {
		mainName = simllm.Qwen272B
	}
	main, err := model(mainName)
	if err != nil {
		return nil, fmt.Errorf("evalbench: human study main model: %w", err)
	}
	pool, err := humaneval.NewPool(nRaters, uint64(a.Options.Suite.Seed)+0xa11)
	if err != nil {
		return nil, err
	}
	prompts, err := humanPrompts(nPrompts, a.Options.Suite.Seed+3)
	if err != nil {
		return nil, err
	}
	pas := a.PASAPE()

	rep := &HumanStudyReport{MainModel: mainName}
	for _, cat := range humaneval.Categories() {
		var baseRatings, pasRatings []int
		var gsb humaneval.GSB
		for i, p := range prompts[cat.Source] {
			salt := fmt.Sprintf("human/%s/%d", cat.Name, i)
			bare := main.Respond(p, simllm.Options{Salt: salt})
			augmented := main.Respond(pas.Transform(p, salt), simllm.Options{Salt: salt})
			for _, r := range pool {
				baseRatings = append(baseRatings, r.Rate(p, bare))
				pasRatings = append(pasRatings, r.Rate(p, augmented))
			}
			g, err := humaneval.CompareGSB(pool, p, augmented, bare)
			if err != nil {
				return nil, err
			}
			gsb.Add(g)
		}
		baseSum, err := humaneval.Summarize(baseRatings)
		if err != nil {
			return nil, fmt.Errorf("evalbench: %s baseline: %w", cat.Name, err)
		}
		pasSum, err := humaneval.Summarize(pasRatings)
		if err != nil {
			return nil, fmt.Errorf("evalbench: %s pas: %w", cat.Name, err)
		}
		rep.Categories = append(rep.Categories, CategoryEval{
			Category: cat.Name,
			Baseline: baseSum,
			PAS:      pasSum,
			GSB:      gsb,
		})
	}
	return rep, nil
}

// humanPrompts samples n prompts for every source category used by the
// human study.
func humanPrompts(n int, seed int64) (map[facet.Category][]string, error) {
	want := make(map[facet.Category]bool)
	for _, c := range humaneval.Categories() {
		want[c.Source] = true
	}
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.Size = n * facet.CategoryCount * 8
	cfg.JunkRate = 0
	cfg.DuplicateRate = 0
	cfg.CategoryBias = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[facet.Category][]string)
	for _, p := range pool {
		if want[p.Truth.Category] && len(out[p.Truth.Category]) < n {
			out[p.Truth.Category] = append(out[p.Truth.Category], p.Text)
		}
	}
	for c := range want {
		if len(out[c]) < n {
			return nil, fmt.Errorf("evalbench: only %d/%d prompts for %v", len(out[c]), n, c)
		}
	}
	return out, nil
}

// meanBaseline averages the baseline summaries across categories.
func (r *HumanStudyReport) meanBaseline() humaneval.Summary {
	sums := make([]humaneval.Summary, len(r.Categories))
	for i, c := range r.Categories {
		sums[i] = c.Baseline
	}
	return humaneval.MeanSummaries(sums)
}

// meanPAS averages the PAS summaries across categories.
func (r *HumanStudyReport) meanPAS() humaneval.Summary {
	sums := make([]humaneval.Summary, len(r.Categories))
	for i, c := range r.Categories {
		sums[i] = c.PAS
	}
	return humaneval.MeanSummaries(sums)
}

// String renders Table 4 followed by the Figure 1(b) win rates.
func (r *HumanStudyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: human evaluation, PAS vs non-PAS (main model %s)\n", r.MainModel)
	t := newTable("Benchmark", "Full Mark", "Avg Score", "Availability",
		"Full Mark (PAS)", "Avg Score (PAS)", "Availability (PAS)")
	for _, c := range r.Categories {
		t.addRow(c.Category,
			pct(c.Baseline.FullMark), f2(c.Baseline.Average), pct(c.Baseline.Availability),
			fmt.Sprintf("%s (%s)", pct(c.PAS.FullMark), signed(100*(c.PAS.FullMark-c.Baseline.FullMark))),
			fmt.Sprintf("%s (%s)", f2(c.PAS.Average), signed(c.PAS.Average-c.Baseline.Average)),
			fmt.Sprintf("%s (%s)", pct(c.PAS.Availability), signed(100*(c.PAS.Availability-c.Baseline.Availability))))
	}
	mb, mp := r.meanBaseline(), r.meanPAS()
	t.addRow("Average",
		pct(mb.FullMark), f2(mb.Average), pct(mb.Availability),
		fmt.Sprintf("%s (%s)", pct(mp.FullMark), signed(100*(mp.FullMark-mb.FullMark))),
		fmt.Sprintf("%s (%s)", f2(mp.Average), signed(mp.Average-mb.Average)),
		fmt.Sprintf("%s (%s)", pct(mp.Availability), signed(100*(mp.Availability-mb.Availability))))
	b.WriteString(t.String())

	b.WriteString("\nFigure 1(b): GSB win rate of PAS vs baseline per category\n")
	g := newTable("Category", "Good", "Same", "Bad", "Win rate")
	for _, c := range r.Categories {
		g.addRow(c.Category, fmt.Sprint(c.GSB.Good), fmt.Sprint(c.GSB.Same), fmt.Sprint(c.GSB.Bad), pct(c.GSB.WinRate()))
	}
	b.WriteString(g.String())
	return b.String()
}
