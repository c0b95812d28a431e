package evalbench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/facet"
)

// FullResults bundles every experiment's report for machine-readable
// export — the artefact a reproduction CI would diff against a checked-in
// expected file.
type FullResults struct {
	Table1      *Table1Report      `json:"table1"`
	Table2      *Table2Report      `json:"table2"`
	Table3      *Table3Report      `json:"table3"`
	HumanStudy  *HumanStudyReport  `json:"table4_fig1"`
	Table5      *Table5Report      `json:"table5"`
	Figure6     *Figure6Report     `json:"fig6"`
	Figure7     *Figure7Report     `json:"fig7"`
	Domain      *DomainReport      `json:"domain"`
	Leaderboard *LeaderboardReport `json:"leaderboard"`
	Agreement   AgreementReport    `json:"judge_agreement"`
	Breakdown   *BreakdownReport   `json:"pas_category_breakdown"`
	Cases       []Case             `json:"cases"`
}

// RunAll executes every experiment once and bundles the reports. The
// domain study uses nDomainPrompts prompts; the leaderboard ranks the
// default contender set.
func (a *Artifacts) RunAll(nDomainPrompts int) (*FullResults, error) {
	out := &FullResults{}
	var err error
	if out.Table1, err = a.Table1(); err != nil {
		return nil, fmt.Errorf("evalbench: table1: %w", err)
	}
	if out.Table2, err = a.Table2(); err != nil {
		return nil, fmt.Errorf("evalbench: table2: %w", err)
	}
	out.Table3 = a.Table3()
	if out.HumanStudy, err = a.HumanStudy(); err != nil {
		return nil, fmt.Errorf("evalbench: human study: %w", err)
	}
	if out.Table5, err = a.Table5(); err != nil {
		return nil, fmt.Errorf("evalbench: table5: %w", err)
	}
	out.Figure6 = a.Figure6()
	if out.Figure7, err = a.Figure7(); err != nil {
		return nil, fmt.Errorf("evalbench: fig7: %w", err)
	}
	if out.Domain, err = a.DomainStudy(facet.Coding, nDomainPrompts); err != nil {
		return nil, fmt.Errorf("evalbench: domain: %w", err)
	}
	if out.Leaderboard, err = a.Leaderboard(defaultContenders(a)); err != nil {
		return nil, fmt.Errorf("evalbench: leaderboard: %w", err)
	}
	if out.Agreement, err = a.judgeAgreement(nDomainPrompts); err != nil {
		return nil, fmt.Errorf("evalbench: agreement: %w", err)
	}
	if out.Breakdown, err = a.Suite.categoryBreakdown("gpt-4-0613", a.PASAPE()); err != nil {
		return nil, fmt.Errorf("evalbench: breakdown: %w", err)
	}
	if out.Cases, err = a.CaseStudies(); err != nil {
		return nil, fmt.Errorf("evalbench: cases: %w", err)
	}
	return out, nil
}

func defaultContenders(a *Artifacts) []Contender {
	return []Contender{
		{MainModel: "gpt-4-turbo-2024-04-09", APE: a.PASAPE()},
		{MainModel: "gpt-4-turbo-2024-04-09", APE: noneAPE{}},
		{MainModel: "gpt-4-0613", APE: a.PASAPE()},
		{MainModel: "gpt-4-0613", APE: noneAPE{}},
		{MainModel: "gpt-3.5-turbo-1106", APE: noneAPE{}},
	}
}

// noneAPE is the identity transform (kept local to avoid exporting the
// baselines type through JSON).
type noneAPE struct{}

func (noneAPE) Name() string                      { return "None" }
func (noneAPE) Transform(prompt, _ string) string { return prompt }

// WriteJSON writes the bundle as stable, indented JSON.
func (r *FullResults) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("evalbench: encoding results: %w", err)
	}
	return nil
}

// String renders every report in experiment order.
func (r *FullResults) String() string {
	var b strings.Builder
	write := func(s fmt.Stringer) {
		b.WriteString(s.String())
		b.WriteString("\n")
	}
	if r.Table1 != nil {
		write(r.Table1)
	}
	if r.Table2 != nil {
		write(r.Table2)
	}
	if r.Table3 != nil {
		write(r.Table3)
	}
	if r.HumanStudy != nil {
		write(r.HumanStudy)
	}
	if r.Table5 != nil {
		write(r.Table5)
	}
	if r.Figure6 != nil {
		write(r.Figure6)
	}
	if r.Figure7 != nil {
		write(r.Figure7)
	}
	if r.Domain != nil {
		write(r.Domain)
	}
	if r.Leaderboard != nil {
		write(r.Leaderboard)
	}
	if r.Agreement.N > 0 {
		write(r.Agreement)
	}
	if r.Breakdown != nil {
		write(r.Breakdown)
	}
	if len(r.Cases) > 0 {
		b.WriteString(RenderCases(r.Cases))
	}
	return b.String()
}
