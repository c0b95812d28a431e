package evalbench

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/facet"
	"repro/internal/metrics"
	"repro/internal/simllm"
)

// CategoryRow is one category's AlpacaEval slice.
type CategoryRow struct {
	Category facet.Category
	N        int
	// WinProb is the mean calibrated win probability (x100) against the
	// reference on this category's prompts.
	WinProb float64
}

// BreakdownReport decomposes a method's AlpacaEval score by prompt
// category — the judge-side counterpart of Figure 1's per-category human
// evaluation.
type BreakdownReport struct {
	MainModel string
	Method    string
	Rows      []CategoryRow
}

// categoryBreakdown evaluates one (main model, APE) pair per category on
// the AlpacaEval suite.
func (s *Suite) categoryBreakdown(mainModel string, ape baselines.APE) (*BreakdownReport, error) {
	if ape == nil {
		return nil, fmt.Errorf("evalbench: nil APE")
	}
	main, err := model(mainModel)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(s.alpaca))
	parallelFor(len(s.alpaca), func(i int) {
		p := s.alpaca[i]
		resp := main.Respond(ape.Transform(p, gameSalt(mainModel, i)), simllm.Options{Salt: gameSalt(mainModel, i)})
		probs[i] = s.judge.Compare(p, resp, s.alpacaRefs[i], gameSalt(mainModel, i)+"/c").ProbA
	})

	byCat := make(map[facet.Category][]float64)
	for i, c := range s.alpacaCats {
		byCat[c] = append(byCat[c], probs[i])
	}
	rep := &BreakdownReport{MainModel: mainModel, Method: ape.Name()}
	for _, c := range facet.Categories() {
		ps := byCat[c]
		if len(ps) == 0 {
			continue
		}
		rep.Rows = append(rep.Rows, CategoryRow{Category: c, N: len(ps), WinProb: 100 * metrics.Mean(ps)})
	}
	return rep, nil
}

// String renders the breakdown.
func (r *BreakdownReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AlpacaEval win probability by category: %s + %s\n", r.MainModel, r.Method)
	t := newTable("Category", "Prompts", "Win prob (%)")
	for _, row := range r.Rows {
		t.addRow(row.Category.String(), fmt.Sprint(row.N), f2(row.WinProb))
	}
	b.WriteString(t.String())
	return b.String()
}
