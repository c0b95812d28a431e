package sft

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/simllm"
)

// cleanDataset builds a curated-quality training set: the golden pairs,
// in taxonomy order so dirtyDataset corrupts the same pairs every run
// (complement.golden depends on that).
func cleanDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := &dataset.Dataset{}
	golden := dataset.Golden()
	for _, c := range facet.Categories() {
		for _, p := range golden[c] {
			if err := d.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// dirtyDataset corrupts a fraction of complements with the three defect
// classes, like skipping the §3.2 selection stage would.
func dirtyDataset(t *testing.T, defectFrac float64) *dataset.Dataset {
	t.Helper()
	clean := cleanDataset(t)
	d := &dataset.Dataset{}
	n := 0
	for _, p := range clean.Pairs {
		n++
		if float64(n%10)/10 < defectFrac {
			switch n % 3 {
			case 0:
				p.Complement = facet.RenderAnswerLeak(fmt.Sprint(n))
			case 1:
				p.Complement = facet.RenderConflicting(facet.Conciseness, fmt.Sprint(n))
				p.Prompt = "Briefly, " + p.Prompt
			case 2:
				p.Complement = facet.RenderDirectives([]facet.Facet{
					facet.Completeness, facet.Examples, facet.Context, facet.Safety, facet.Planning,
				}, fmt.Sprint(n))
				p.Prompt = "Hello there friend!"
				p.Category = "chitchat"
			}
		}
		if err := d.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestTrainValidation(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	if _, err := Train(nil, cleanDataset(t), DefaultConfig()); err == nil {
		t.Error("nil base should fail")
	}
	if _, err := Train(base, &dataset.Dataset{}, DefaultConfig()); err != errNoData {
		t.Error("empty data should fail with ErrNoData")
	}
	if _, err := Train(base, cleanDataset(t), Config{Smoothing: -1}); err == nil {
		t.Error("negative smoothing should fail")
	}
}

func TestTrainLearnsCategoryFacets(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	m, err := Train(base, cleanDataset(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol := m.Policy()
	// Golden coding complements demand specificity+accuracy (the top
	// needs); the learned propensity must reflect that.
	coding := pol.CategoryFacet[facet.Coding]
	if coding[facet.Specificity] < coding[facet.Style] {
		t.Fatalf("coding policy did not learn specificity: %v", coding)
	}
	writing := pol.CategoryFacet[facet.Writing]
	if writing[facet.Style] < writing[facet.Accuracy] {
		t.Fatalf("writing policy did not learn style: %v", writing)
	}
}

func TestTrainMeasuresDefectRates(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	clean, err := Train(base, cleanDataset(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Train(base, dirtyDataset(t, 0.3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cp, dp := clean.Policy(), dirty.Policy()
	if cp.LeakRate != 0 {
		t.Errorf("clean leak rate = %v, want 0", cp.LeakRate)
	}
	if dp.LeakRate <= cp.LeakRate {
		t.Errorf("dirty leak rate %v not above clean %v", dp.LeakRate, cp.LeakRate)
	}
	totalDirty := dp.LeakRate + dp.ConflictRate + dp.OverreachRate
	if totalDirty < 0.15 || totalDirty > 0.45 {
		t.Errorf("dirty defect mass = %v, want near 0.3", totalDirty)
	}
}

func TestComplementDeterministicAndDirected(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	m, err := Train(base, cleanDataset(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := "Write a python function that implements a bloom filter."
	if m.Complement(p, "s") != m.Complement(p, "s") {
		t.Fatal("not deterministic")
	}
	aug := m.Complement(p, "s")
	if facet.DetectDirectives(aug).Len() == 0 {
		t.Fatalf("complement carries no directives: %q", aug)
	}
	if strings.Contains(strings.ToLower(aug), "bloom filter implementation code") {
		t.Fatalf("complement looks like an answer: %q", aug)
	}
}

func TestCleanModelProducesFewerDefects(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	clean, err := Train(base, cleanDataset(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Train(base, dirtyDataset(t, 0.3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prompts := []string{
		"Briefly summarize this long article about coral reefs.",
		"Briefly explain how vaccines work.",
		"Hello! How is your morning going?",
		"Briefly, what is dark matter?",
	}
	defects := func(m *Model) int {
		n := 0
		for _, p := range prompts {
			a := facet.AnalyzePrompt(p)
			for i := 0; i < 50; i++ {
				aug := m.Complement(p, fmt.Sprintf("d%d", i))
				dirs := facet.DetectDirectives(aug)
				if facet.DetectAnswerLeak(aug) ||
					len(facet.ConflictingDirectives(a, dirs)) > 0 ||
					(dirs.Len() >= 4 && a.Complexity < 1) {
					n++
				}
			}
		}
		return n
	}
	dc, dd := defects(clean), defects(dirty)
	if dd <= dc {
		t.Fatalf("dirty-trained model should emit more defects: clean=%d dirty=%d", dc, dd)
	}
}

func TestWeakerBaseIsNoisier(t *testing.T) {
	data := cleanDataset(t)
	strong, err := Train(simllm.MustModel(simllm.Qwen27B), data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	weak, err := Train(simllm.MustModel(simllm.LLaMA27B), data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// On-target rate: fraction of complements demanding a top-2 need.
	prompts := []string{
		"Write a python function that implements a rate limiter.",
		"Explain how photosynthesis works.",
		"Analyze the trade offs of sql versus nosql for a startup.",
		"Solve x^2 - 5x + 6 = 0.",
	}
	onTarget := func(m *Model) int {
		n := 0
		for _, p := range prompts {
			top := facet.AnalyzePrompt(p).Needs.Top(3)
			topSet := facet.NewSet(top...)
			for i := 0; i < 50; i++ {
				dirs := facet.DetectDirectives(m.Complement(p, fmt.Sprintf("n%d", i)))
				hit := false
				for _, f := range dirs.Facets() {
					if topSet.Has(f) {
						hit = true
					}
				}
				if hit {
					n++
				}
			}
		}
		return n
	}
	s, w := onTarget(strong), onTarget(weak)
	if s < w {
		t.Fatalf("stronger base should be at least as on-target: strong=%d weak=%d", s, w)
	}
}

func TestTrapDirectiveLearned(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	d := cleanDataset(t)
	// Add trap-prompt pairs whose complements demand vigilance.
	trapPrompt := "If there are 10 birds on a tree and one is shot dead, how many birds are on the ground?"
	for i := 0; i < 10; i++ {
		if err := d.Add(dataset.Pair{
			Prompt:     trapPrompt,
			Complement: facet.RenderDirectives([]facet.Facet{facet.TrapAware, facet.Reasoning}, fmt.Sprint(i)),
			Category:   "reasoning",
		}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Train(base, d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy().TrapDirective < 0.9 {
		t.Fatalf("trap directive propensity = %v, want ~1", m.Policy().TrapDirective)
	}
	warned := 0
	for i := 0; i < 30; i++ {
		aug := m.Complement(trapPrompt, fmt.Sprintf("t%d", i))
		if facet.DetectDirectives(aug).Has(facet.TrapAware) {
			warned++
		}
	}
	if warned < 25 {
		t.Fatalf("trained model warned only %d/30 times", warned)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	m, err := Train(base, cleanDataset(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseName() != m.BaseName() {
		t.Fatalf("base name lost: %s", got.BaseName())
	}
	p := "Explain the science of fermentation."
	if got.Complement(p, "x") != m.Complement(p, "x") {
		t.Fatal("loaded model behaves differently")
	}
}

func TestSaveLoadFile(t *testing.T) {
	base := simllm.MustModel(simllm.Qwen27B)
	m, err := Train(base, cleanDataset(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pas.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestLoadRejectsBadFormat(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"format":"other"}`)); err == nil {
		t.Error("wrong format should fail")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("bad json should fail")
	}
	if _, err := Load(strings.NewReader(`{"format":"pas-sft-v1","base":{"Name":"x","Quality":0.5,"Obedience":0.5,"TrapResistance":0.5,"Verbosity":1},"policy":{"category_facet":[[0.1]]}}`)); err == nil {
		t.Error("wrong policy shape should fail")
	}
}

func BenchmarkTrain(b *testing.B) {
	base := simllm.MustModel(simllm.Qwen27B)
	d := &dataset.Dataset{}
	for _, pairs := range dataset.Golden() {
		for _, p := range pairs {
			if err := d.Add(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(base, d, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComplement(b *testing.B) {
	base := simllm.MustModel(simllm.Qwen27B)
	d := &dataset.Dataset{}
	for _, pairs := range dataset.Golden() {
		for _, p := range pairs {
			if err := d.Add(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	m, err := Train(base, d, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Complement("Write a python function that implements a trie.", "bench")
	}
}
