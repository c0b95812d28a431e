package classify

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/facet"
)

func trainedClassifier(t testing.TB) *Classifier {
	t.Helper()
	examples, err := TrainingSet(3000, 99)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Train(examples, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err != errNoData {
		t.Error("empty training should fail with errNoData")
	}
	if _, err := Train([]Example{{Text: "x", Category: facet.QA}}, Config{Smoothing: 0}); err == nil {
		t.Error("zero smoothing should fail")
	}
	if _, err := Train([]Example{{Text: "x", Category: facet.Category(99)}}, DefaultConfig()); err == nil {
		t.Error("invalid category should fail")
	}
}

func TestTrainingSetShape(t *testing.T) {
	ex, err := TrainingSet(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 500 {
		t.Fatalf("len = %d", len(ex))
	}
	cats := map[facet.Category]int{}
	for _, e := range ex {
		if e.Text == "" {
			t.Fatal("empty example text")
		}
		cats[e.Category]++
	}
	if len(cats) < 10 {
		t.Fatalf("training set covers only %d categories", len(cats))
	}
	if _, err := TrainingSet(0, 1); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestPredictObviousCases(t *testing.T) {
	c := trainedClassifier(t)
	cases := map[string]facet.Category{
		"Write a python function that implements a merge sort.":            facet.Coding,
		"Translate 'good morning, how are you' into spanish.":              facet.Translation,
		"Summarize this long article about coral reefs into key points.":   facet.Summarization,
		"Pretend you are a medieval blacksmith and greet me in character.": facet.Roleplay,
	}
	for text, want := range cases {
		got, conf := c.Predict(text)
		if got != want {
			t.Errorf("Predict(%q) = %v (conf %.2f), want %v", text, got, conf, want)
		}
		if conf <= 0 || conf > 1 {
			t.Errorf("confidence out of range: %v", conf)
		}
	}
}

// TestAccuracyBeatsHeuristic verifies the trained classifier outperforms
// the lexicon heuristic on held-out data — the reason the paper fine-tunes
// a classifier instead of keyword matching.
func TestAccuracyBeatsHeuristic(t *testing.T) {
	c := trainedClassifier(t)
	cfg := corpus.DefaultConfig()
	cfg.Seed = 12345 // held out from training seed
	cfg.Size = 2000
	cfg.JunkRate = 0
	cfg.DuplicateRate = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var clfHit, heuHit, total int
	for _, p := range pool {
		total++
		if got, _ := c.Predict(p.Text); got == p.Truth.Category {
			clfHit++
		}
		if facet.AnalyzePrompt(p.Text).Category == p.Truth.Category {
			heuHit++
		}
	}
	clfAcc := float64(clfHit) / float64(total)
	heuAcc := float64(heuHit) / float64(total)
	if clfAcc < 0.85 {
		t.Fatalf("classifier accuracy = %.3f, want >= 0.85", clfAcc)
	}
	if clfAcc <= heuAcc {
		t.Fatalf("classifier (%.3f) should beat heuristic (%.3f)", clfAcc, heuAcc)
	}
}

func TestPredictDeterministic(t *testing.T) {
	c := trainedClassifier(t)
	a1, c1 := c.Predict("Explain how photosynthesis works.")
	a2, c2 := c.Predict("Explain how photosynthesis works.")
	if a1 != a2 || c1 != c2 {
		t.Fatal("prediction not deterministic")
	}
}

func TestPredictEmptyText(t *testing.T) {
	c := trainedClassifier(t)
	got, conf := c.Predict("")
	if !got.Valid() {
		t.Fatalf("invalid category %v", got)
	}
	if conf <= 0 || conf > 1 {
		t.Fatalf("conf = %v", conf)
	}
}

func BenchmarkPredict(b *testing.B) {
	c := trainedClassifier(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Predict("Write a python function that implements an LRU cache.")
	}
}
