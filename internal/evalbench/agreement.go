package evalbench

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/humaneval"
	"repro/internal/simllm"
)

// AgreementReport validates the LLM-as-judge against the simulated human
// raters — the sanity check real judge-based benchmarks publish (how
// often does GPT-4-as-judge agree with human majority preference?).
type AgreementReport struct {
	// N is the number of comparisons evaluated.
	N int
	// Agree counts prompts where the judge's pairwise verdict matched
	// the rater-majority GSB verdict (ties excluded from both sides).
	Agree int
	// Ties counts prompts the rater pool scored as a draw (excluded
	// from the rate).
	Ties int
}

// rate returns the agreement fraction over non-tied comparisons.
func (r AgreementReport) rate() float64 {
	n := r.N - r.Ties
	if n <= 0 {
		return 0
	}
	return float64(r.Agree) / float64(n)
}

// judgeAgreement compares the judge and the rater pool on nPrompts
// (bare vs PAS-augmented responses of the human-study main model).
func (a *Artifacts) judgeAgreement(nPrompts int) (AgreementReport, error) {
	if nPrompts < 1 {
		return AgreementReport{}, fmt.Errorf("evalbench: nPrompts must be >= 1, got %d", nPrompts)
	}
	mainName := a.Options.HumanMainModel
	if mainName == "" {
		mainName = simllm.Qwen272B
	}
	main, err := model(mainName)
	if err != nil {
		return AgreementReport{}, err
	}
	pool, err := humaneval.NewPool(a.Options.Raters, uint64(a.Options.Suite.Seed)+0xa91)
	if err != nil {
		return AgreementReport{}, err
	}

	gen := corpus.DefaultConfig()
	gen.Seed = a.Options.Suite.Seed + 17
	gen.Size = nPrompts * 4
	gen.JunkRate = 0
	gen.DuplicateRate = 0
	pool2, err := corpus.Generate(gen)
	if err != nil {
		return AgreementReport{}, err
	}
	pas := a.PASAPE()

	var rep AgreementReport
	for i, p := range pool2 {
		if rep.N == nPrompts {
			break
		}
		salt := fmt.Sprintf("agree/%d", i)
		bare := main.Respond(p.Text, simllm.Options{Salt: salt})
		augmented := main.Respond(pas.Transform(p.Text, salt), simllm.Options{Salt: salt})
		rep.N++

		g, err := humaneval.CompareGSB(pool, p.Text, augmented, bare)
		if err != nil {
			return AgreementReport{}, err
		}
		if g.Same == 1 {
			rep.Ties++
			continue
		}
		judgeSaysAug := a.Suite.judge.Compare(p.Text, augmented, bare, salt).AWins
		humansSayAug := g.Good == 1
		if judgeSaysAug == humansSayAug {
			rep.Agree++
		}
	}
	return rep, nil
}

// String renders the agreement study.
func (r AgreementReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Judge-human agreement: %d comparisons, %d rater ties, agreement %.1f%%\n",
		r.N, r.Ties, 100*r.rate())
	return b.String()
}
