package augment

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/curation"
	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/simllm"
)

// curatedFixture fabricates curated prompts directly (bypassing the full
// §3.1 pipeline) so augment tests stay fast and focused.
func curatedFixture(t *testing.T, n int) []curation.Curated {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Size = n * 2
	cfg.Seed = 31
	cfg.JunkRate = 0
	cfg.DuplicateRate = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]curation.Curated, 0, n)
	for _, p := range pool {
		if len(out) == n {
			break
		}
		out = append(out, curation.Curated{Prompt: p, Category: p.Truth.Category})
	}
	return out
}

func TestRunValidation(t *testing.T) {
	golden := dataset.Golden()
	if _, err := Run(nil, golden, DefaultConfig()); err == nil {
		t.Error("no curated prompts should fail")
	}
	if _, err := Run(curatedFixture(t, 5), nil, DefaultConfig()); err == nil {
		t.Error("no golden should fail")
	}
	bad := DefaultConfig()
	bad.GeneratorModel = "nope"
	if _, err := Run(curatedFixture(t, 5), golden, bad); err == nil {
		t.Error("unknown generator should fail")
	}
	bad = DefaultConfig()
	bad.CriticModel = "nope"
	if _, err := Run(curatedFixture(t, 5), golden, bad); err == nil {
		t.Error("unknown critic should fail")
	}
	bad = DefaultConfig()
	bad.MaxRegen = -1
	if _, err := Run(curatedFixture(t, 5), golden, bad); err == nil {
		t.Error("negative MaxRegen should fail")
	}
}

func TestRunProducesValidPairs(t *testing.T) {
	cur := curatedFixture(t, 300)
	res, err := Run(cur, dataset.Golden(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Data.Len() != 300 {
		t.Fatalf("pairs = %d, want 300", res.Data.Len())
	}
	for i, p := range res.Data.Pairs {
		if p.Prompt != cur[i].Prompt.Text {
			t.Fatalf("pair %d prompt mismatch", i)
		}
		if p.Category != cur[i].Category.String() {
			t.Fatalf("pair %d category mismatch", i)
		}
		if !strings.HasPrefix(p.Source, "generated") && !strings.HasPrefix(p.Source, "regenerated") {
			t.Fatalf("pair %d has source %q", i, p.Source)
		}
	}
}

func TestSelectionReducesResidualDefects(t *testing.T) {
	cur := curatedFixture(t, 400)
	golden := dataset.Golden()

	withSel, err := Run(cur, golden, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	noSelCfg := DefaultConfig()
	noSelCfg.Selection = false
	noSel, err := Run(cur, golden, noSelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if withSel.Stats.ResidualDefects >= noSel.Stats.ResidualDefects {
		t.Fatalf("selection did not reduce defects: with=%d without=%d",
			withSel.Stats.ResidualDefects, noSel.Stats.ResidualDefects)
	}
	// The no-selection run must contain a meaningful defect mass for the
	// ablation to measure (the paper reports a 3.8-point average drop).
	frac := float64(noSel.Stats.ResidualDefects) / float64(noSel.Data.Len())
	if frac < 0.05 {
		t.Fatalf("raw generation defect fraction only %.3f", frac)
	}
	if noSel.Stats.Rejected != 0 || noSel.Stats.Regenerated != 0 {
		t.Fatal("no-selection run should never invoke the critic")
	}
}

func TestRegenerationLoopRuns(t *testing.T) {
	cur := curatedFixture(t, 400)
	res, err := Run(cur, dataset.Golden(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rejected == 0 {
		t.Fatal("critic never rejected anything — selection is vacuous")
	}
	if res.Stats.Regenerated == 0 {
		t.Fatal("no regenerations happened")
	}
	if res.Stats.Regenerated > res.Stats.Rejected {
		t.Fatalf("regenerated %d > rejected %d", res.Stats.Regenerated, res.Stats.Rejected)
	}
}

func TestPerCategoryCap(t *testing.T) {
	cur := curatedFixture(t, 500)
	cfg := DefaultConfig()
	cfg.PerCategoryCap = 10
	cfg.HeavyCategoryCap = 10
	res, err := Run(cur, dataset.Golden(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, n := range res.Data.CategoryCounts() {
		if n > 10 {
			t.Fatalf("category %v has %d pairs, cap 10", c, n)
		}
	}
}

func TestDeterministic(t *testing.T) {
	cur := curatedFixture(t, 100)
	golden := dataset.Golden()
	a, err := Run(cur, golden, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cur, golden, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Data.Len() != b.Data.Len() {
		t.Fatal("non-deterministic size")
	}
	for i := range a.Data.Pairs {
		if a.Data.Pairs[i] != b.Data.Pairs[i] {
			t.Fatalf("pair %d differs across runs", i)
		}
	}
}

func TestIsDefective(t *testing.T) {
	prompt := "Briefly summarize this long article about coral reefs."
	if !isDefective(prompt, facet.RenderAnswerLeak("x")) {
		t.Error("leak not flagged")
	}
	if !isDefective(prompt, facet.RenderConflicting(facet.Conciseness, "x")) {
		t.Error("conflict not flagged")
	}
	if !isDefective(prompt, "no directives here at all") {
		t.Error("empty directives not flagged")
	}
	clean := facet.RenderDirectives([]facet.Facet{facet.Conciseness, facet.Accuracy}, "x")
	if isDefective(prompt, clean) {
		t.Errorf("clean aug flagged: %q", clean)
	}
}

func TestGaveUpBounded(t *testing.T) {
	cur := curatedFixture(t, 300)
	cfg := DefaultConfig()
	cfg.MaxRegen = 1 // tight budget forces some give-ups
	res, err := Run(cur, dataset.Golden(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GaveUp > res.Stats.Prompts {
		t.Fatalf("gave up %d > prompts %d", res.Stats.GaveUp, res.Stats.Prompts)
	}
}

func BenchmarkAugment100(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.Size = 200
	cfg.JunkRate = 0
	cfg.DuplicateRate = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cur := make([]curation.Curated, 0, 100)
	for _, p := range pool[:100] {
		cur = append(cur, curation.Curated{Prompt: p, Category: p.Truth.Category})
	}
	golden := dataset.Golden()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cur, golden, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	_ = simllm.GPT4Turbo
}
