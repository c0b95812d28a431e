package evalbench

import (
	"fmt"
	"strings"

	"repro/internal/augment"
	"repro/internal/baselines"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/simllm"
)

// DomainReport is the §3.3 extension experiment: a PAS trained only on
// one category's generated data, evaluated on that domain against the
// general PAS and the no-APE baseline.
type DomainReport struct {
	Category facet.Category
	// Pairs is the size of the specialised training set.
	Pairs int
	// None, General, Specialized are mean win probabilities (x100)
	// against the reference on the domain prompt set.
	None, General, Specialized float64
	MainModel                  string
}

// DomainStudy builds a specialised PAS for the category and compares it
// on a domain-only benchmark.
func (a *Artifacts) DomainStudy(cat facet.Category, nPrompts int) (*DomainReport, error) {
	if !cat.Valid() {
		return nil, fmt.Errorf("evalbench: invalid category %d", int(cat))
	}
	if nPrompts < 1 {
		return nil, fmt.Errorf("evalbench: nPrompts must be >= 1, got %d", nPrompts)
	}

	// Specialised dataset: same curated prompts, generation restricted to
	// the domain with a high cap (the §3.3 control knob).
	augCfg := a.Options.Build.Augment
	augCfg.Categories = []facet.Category{cat}
	augCfg.PerCategoryCap = 0
	augCfg.HeavyCategoryCap = 0
	gen, err := augment.Run(a.Build.Curated, dataset.Golden(), augCfg)
	if err != nil {
		return nil, fmt.Errorf("evalbench: domain generation: %w", err)
	}
	specialized, err := pipeline.Retrain(a.Options.Build.BaseModel, gen.Data, a.Options.Build.SFT)
	if err != nil {
		return nil, fmt.Errorf("evalbench: domain retrain: %w", err)
	}

	// Domain prompt set.
	genCfg := corpus.DefaultConfig()
	genCfg.Seed = a.Options.Suite.Seed + 11
	genCfg.Size = nPrompts * facet.CategoryCount * 6
	genCfg.JunkRate = 0
	genCfg.DuplicateRate = 0
	genCfg.CategoryBias = 0
	pool, err := corpus.Generate(genCfg)
	if err != nil {
		return nil, err
	}
	var prompts []string
	for _, p := range pool {
		if p.Truth.Category == cat && len(prompts) < nPrompts {
			prompts = append(prompts, p.Text)
		}
	}
	if len(prompts) < nPrompts {
		return nil, fmt.Errorf("evalbench: only %d/%d domain prompts", len(prompts), nPrompts)
	}

	main, err := model(simllm.GPT40613)
	if err != nil {
		return nil, err
	}
	ref, err := model(a.Options.Suite.AlpacaReference)
	if err != nil {
		return nil, err
	}

	score := func(ape baselines.APE) float64 {
		var probs []float64
		for i, p := range prompts {
			salt := fmt.Sprintf("domain/%d", i)
			resp := main.Respond(ape.Transform(p, salt), simllm.Options{Salt: salt})
			refResp := ref.Respond(p, simllm.Options{Salt: salt + "/ref"})
			probs = append(probs, a.Suite.judge.Compare(p, resp, refResp, salt).ProbA)
		}
		return 100 * metrics.Mean(probs)
	}

	return &DomainReport{
		Category:    cat,
		Pairs:       gen.Data.Len(),
		None:        score(baselines.None{}),
		General:     score(a.PASAPE()),
		Specialized: score(pasAPE{model: specialized, label: "PAS-" + cat.String()}),
		MainModel:   simllm.GPT40613,
	}, nil
}

func (r *DomainReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Domain specialization (§3.3): category %s, %d specialised pairs, main model %s\n",
		r.Category, r.Pairs, r.MainModel)
	t := newTable("APE", "Win prob vs reference (%)")
	t.addRow("None", f2(r.None))
	t.addRow("PAS (general)", f2(r.General))
	t.addRow("PAS (specialised)", f2(r.Specialized))
	b.WriteString(t.String())
	return b.String()
}
