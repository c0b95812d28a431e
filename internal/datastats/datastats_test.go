package datastats

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/facet"
)

func goldenDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	d := &dataset.Dataset{}
	for _, pairs := range dataset.Golden() {
		for _, p := range pairs {
			if err := d.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("nil dataset should fail")
	}
	if _, err := Analyze(&dataset.Dataset{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestAnalyzeGoldenDataset(t *testing.T) {
	rep, err := Analyze(goldenDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 5*facet.CategoryCount {
		t.Fatalf("total = %d", rep.Total)
	}
	if len(rep.Categories) != facet.CategoryCount {
		t.Fatalf("categories = %d", len(rep.Categories))
	}
	// Golden pairs are clean by construction.
	if rep.OverallDefectRate != 0 {
		t.Fatalf("golden defect rate = %v", rep.OverallDefectRate)
	}
	// Golden complements obey the 30-word budget.
	if rep.WithinBudget < 0.99 {
		t.Fatalf("within budget = %v", rep.WithinBudget)
	}
	// Uniform golden shares: Gini near 0.
	if rep.GiniShare > 0.05 {
		t.Fatalf("gini = %v for a uniform dataset", rep.GiniShare)
	}
	var shareSum float64
	for _, c := range rep.Categories {
		shareSum += c.Share
		if c.Count != 5 {
			t.Errorf("category %v count = %d", c.Category, c.Count)
		}
		if c.MeanComplementWords <= 0 || c.MeanPromptWords <= 0 {
			t.Errorf("category %v has zero lengths", c.Category)
		}
		if len(c.TopFacets) == 0 {
			t.Errorf("category %v has no top facets", c.Category)
		}
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", shareSum)
	}
}

func TestAnalyzeFlagsDefects(t *testing.T) {
	d := goldenDataset(t)
	// Inject defective pairs.
	for i := 0; i < 10; i++ {
		if err := d.Add(dataset.Pair{
			Prompt:     "Briefly, what is dark matter?",
			Complement: facet.RenderConflicting(facet.Conciseness, fmt.Sprint(i)),
			Category:   "qa",
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverallDefectRate <= 0 {
		t.Fatal("injected defects not counted")
	}
	var qa CategoryStats
	for _, c := range rep.Categories {
		if c.Category == facet.QA {
			qa = c
		}
	}
	if qa.DefectRate <= 0 {
		t.Fatal("qa defect rate should be positive")
	}
}

func TestGini(t *testing.T) {
	if g := gini([]float64{0.25, 0.25, 0.25, 0.25}); g > 1e-9 {
		t.Fatalf("uniform gini = %v", g)
	}
	if g := gini([]float64{1, 0, 0, 0}); g < 0.7 {
		t.Fatalf("concentrated gini = %v", g)
	}
	if gini(nil) != 0 || gini([]float64{0, 0}) != 0 {
		t.Fatal("degenerate gini should be 0")
	}
}

func TestReportRendering(t *testing.T) {
	rep, err := Analyze(goldenDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"Dataset analysis", "coding", "demanded facets"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestDiffDetectsQualityGap(t *testing.T) {
	clean, err := Analyze(goldenDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	dirty := goldenDataset(t)
	for i := 0; i < 20; i++ {
		if err := dirty.Add(dataset.Pair{
			Prompt:     "Hello there friend!",
			Complement: facet.RenderAnswerLeak(fmt.Sprint(i)),
			Category:   "chitchat",
		}); err != nil {
			t.Fatal(err)
		}
	}
	dirtyRep, err := Analyze(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if delta := dirtyRep.OverallDefectRate - clean.OverallDefectRate; delta <= 0 {
		t.Fatalf("defect delta = %v, want positive", delta)
	}
}
