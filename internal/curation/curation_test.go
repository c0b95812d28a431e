package curation

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/corpus"
)

func testClassifier(t testing.TB) *classify.Classifier {
	t.Helper()
	ex, err := classify.TrainingSet(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := classify.Train(ex, classify.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testPool(t testing.TB, size int) []corpus.Prompt {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Size = size
	cfg.Seed = 21
	pool, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestRunValidation(t *testing.T) {
	clf := testClassifier(t)
	if _, err := Run(nil, clf, DefaultConfig()); err == nil {
		t.Error("empty pool should fail")
	}
	if _, err := Run(testPool(t, 10), nil, DefaultConfig()); err == nil {
		t.Error("nil classifier should fail")
	}
	bad := DefaultConfig()
	bad.QualityThreshold = 42
	if _, err := Run(testPool(t, 10), clf, bad); err == nil {
		t.Error("threshold out of range should fail")
	}
	bad = DefaultConfig()
	bad.ScorerModel = "unknown-model"
	if _, err := Run(testPool(t, 10), clf, bad); err == nil {
		t.Error("unknown scorer should fail")
	}
}

func TestPipelineStagesDoTheirJobs(t *testing.T) {
	pool := testPool(t, 1500)
	res, err := Run(pool, testClassifier(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats

	if st.Input != 1500 {
		t.Fatalf("input = %d", st.Input)
	}
	// Dedup must collapse a meaningful share (dup rate is 25%).
	if st.DupCollapsed < 100 {
		t.Errorf("dedup collapsed only %d entries", st.DupCollapsed)
	}
	if st.AfterDedup+st.DupCollapsed != st.Input {
		t.Errorf("dedup accounting broken: %d + %d != %d", st.AfterDedup, st.DupCollapsed, st.Input)
	}
	// Quality filter must drop most junk.
	if st.DroppedJunk == 0 {
		t.Error("filter dropped no junk")
	}
	junkRecall := float64(st.DroppedJunk) / float64(st.DroppedJunk+st.LeakedJunk)
	if junkRecall < 0.8 {
		t.Errorf("junk recall = %.2f, want >= 0.8", junkRecall)
	}
	if st.AfterFilter == 0 || st.AfterFilter > st.AfterDedup {
		t.Errorf("filter stage count wrong: %d of %d", st.AfterFilter, st.AfterDedup)
	}
	if len(res.Selected) != st.AfterFilter {
		t.Errorf("selected %d != after-filter %d", len(res.Selected), st.AfterFilter)
	}
}

func TestClassificationMostlyCorrect(t *testing.T) {
	pool := testPool(t, 1500)
	res, err := Run(pool, testClassifier(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hit, total int
	for _, c := range res.Selected {
		if c.Prompt.Truth.Junk {
			continue
		}
		total++
		if c.Category == c.Prompt.Truth.Category {
			hit++
		}
	}
	if total == 0 {
		t.Fatal("no survivors to check")
	}
	acc := float64(hit) / float64(total)
	if acc < 0.8 {
		t.Fatalf("curated classification accuracy = %.3f", acc)
	}
}

func TestDedupKeepsOnePerFamily(t *testing.T) {
	pool := testPool(t, 1200)
	res, err := Run(pool, testClassifier(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No two survivors should be generator-level duplicates of each other.
	family := func(p corpus.Prompt) int {
		if p.Truth.DupOf >= 0 {
			return p.Truth.DupOf
		}
		return p.ID
	}
	seen := map[int]int{}
	dups := 0
	for _, c := range res.Selected {
		f := family(c.Prompt)
		if _, ok := seen[f]; ok {
			dups++
		}
		seen[f]++
	}
	// Allow a small leak rate: embeddings are approximate.
	if frac := float64(dups) / float64(len(res.Selected)); frac > 0.05 {
		t.Fatalf("duplicate families leaked: %.3f of survivors", frac)
	}
}

func TestDeterministic(t *testing.T) {
	pool := testPool(t, 600)
	clf := testClassifier(t)
	a, err := Run(pool, clf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pool, clf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != len(b.Selected) {
		t.Fatal("non-deterministic selection size")
	}
	for i := range a.Selected {
		if a.Selected[i].Prompt.ID != b.Selected[i].Prompt.ID {
			t.Fatal("non-deterministic selection order")
		}
	}
}

func BenchmarkCuration1k(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.Size = 1000
	pool, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	clf := testClassifier(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(pool, clf, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
