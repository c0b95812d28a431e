package evalbench

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/pipeline"
	"repro/internal/sft"
	"repro/internal/simllm"
)

// Options configures an experiment run: the benchmark suites, the PAS
// build, and the baseline bases.
type Options struct {
	// Suite sizes the benchmarks.
	Suite SuiteConfig
	// Build configures the primary PAS construction (Table 1 uses a
	// Qwen2-7B base).
	Build pipeline.Config
	// AltBase is the alternative PAS base of Table 2 (LLaMA-2-7B, the
	// same base BPO uses).
	AltBase string
	// BPOBase is the BPO rewriter's base model.
	BPOBase string
	// HumanPrompts is the number of prompts per human-eval category
	// (Table 4 / Figure 1).
	HumanPrompts int
	// Raters is the simulated rater-pool size.
	Raters int
	// HumanMainModel is the downstream model the human study evaluates.
	HumanMainModel string
}

// DefaultOptions returns paper-scale settings.
func DefaultOptions() Options {
	return Options{
		Suite:          defaultSuiteConfig(),
		Build:          pipeline.DefaultConfig(),
		AltBase:        simllm.LLaMA27B,
		BPOBase:        simllm.LLaMA27B,
		HumanPrompts:   30,
		Raters:         7,
		HumanMainModel: simllm.Qwen272B,
	}
}

// QuickOptions returns a reduced-scale configuration for tests and smoke
// runs: same pipeline, smaller suites and pools.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Suite.ArenaSize = 60
	o.Suite.AlpacaSize = 90
	o.Build.CorpusSize = 3000
	o.Build.ClassifierExamples = 2000
	o.Build.Augment.PerCategoryCap = 60
	o.Build.Augment.HeavyCategoryCap = 120
	o.HumanPrompts = 8
	o.Raters = 5
	return o
}

// Artifacts holds the expensive shared state of the experiment drivers:
// trained systems and the benchmark suites. Prepare builds it once; every
// table/figure driver reuses it.
type Artifacts struct {
	Options Options
	Suite   *Suite
	// Build is the primary PAS construction (with selection).
	Build *pipeline.Result
	// PAS is the primary PAS model (Build.Model).
	PAS *sft.Model
	// PASAlt is PAS fine-tuned on the Table 2 alternative base.
	PASAlt *sft.Model
	// NoSelection is the Table 5 ablation model: same curated prompts,
	// selection/regeneration disabled.
	NoSelection *sft.Model
	// BPO is the baseline rewriter.
	BPO *baselines.BPO
}

// Prepare builds all systems and suites an experiment run needs.
func Prepare(opt Options) (*Artifacts, error) {
	suite, err := newSuite(opt.Suite)
	if err != nil {
		return nil, err
	}
	build, err := pipeline.Build(opt.Build)
	if err != nil {
		return nil, err
	}
	alt, err := pipeline.Retrain(opt.AltBase, build.Dataset, opt.Build.SFT)
	if err != nil {
		return nil, fmt.Errorf("evalbench: alt base: %w", err)
	}
	ablated, err := pipeline.AblateSelection(build.Curated, opt.Build.Augment)
	if err != nil {
		return nil, fmt.Errorf("evalbench: ablation: %w", err)
	}
	noSel, err := pipeline.Retrain(opt.Build.BaseModel, ablated.Data, opt.Build.SFT)
	if err != nil {
		return nil, fmt.Errorf("evalbench: ablation retrain: %w", err)
	}
	bpo, err := baselines.NewBPO(opt.BPOBase)
	if err != nil {
		return nil, err
	}
	return &Artifacts{
		Options:     opt,
		Suite:       suite,
		Build:       build,
		PAS:         build.Model,
		PASAlt:      alt,
		NoSelection: noSel,
		BPO:         bpo,
	}, nil
}

// pasAPE adapts an sft model to the APE interface (the public pas.System
// does the same for library users; the harness stays inside internal).
type pasAPE struct {
	model *sft.Model
	label string
}

func (p pasAPE) Name() string { return p.label }

func (p pasAPE) Transform(prompt, salt string) string {
	c := p.model.Complement(prompt, salt)
	if c == "" {
		return prompt
	}
	return prompt + "\n" + c
}

// PASAPE exposes the primary PAS model as an APE named "PAS".
func (a *Artifacts) PASAPE() baselines.APE { return pasAPE{model: a.PAS, label: "PAS"} }

// pasAltAPE exposes the Table 2 model as an APE.
func (a *Artifacts) pasAltAPE() baselines.APE { return pasAPE{model: a.PASAlt, label: "PAS"} }

// noSelectionAPE exposes the Table 5 ablation model as an APE.
func (a *Artifacts) noSelectionAPE() baselines.APE {
	return pasAPE{model: a.NoSelection, label: "wo selection"}
}

// methodGrid evaluates one APE across all six main models, returning one
// row per model in Table 1 order.
func (a *Artifacts) methodGrid(ape baselines.APE) ([]Row, error) {
	rows := make([]Row, 0, len(simllm.MainModels()))
	for _, m := range simllm.MainModels() {
		row, err := a.Suite.evaluateRow(m, ape)
		if err != nil {
			return nil, fmt.Errorf("evalbench: %s with %s: %w", m, ape.Name(), err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// meanRow averages a method grid into the paper's "Average" row.
func meanRow(rows []Row) Row {
	if len(rows) == 0 {
		return Row{}
	}
	out := Row{MainModel: "Average", Method: rows[0].Method}
	for _, r := range rows {
		out.ArenaHard += r.ArenaHard
		out.Alpaca += r.Alpaca
		out.AlpacaLC += r.AlpacaLC
	}
	n := float64(len(rows))
	out.ArenaHard /= n
	out.Alpaca /= n
	out.AlpacaLC /= n
	return out
}
