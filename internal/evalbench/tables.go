package evalbench

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
)

// Table1Report reproduces Table 1: PAS vs BPO vs no APE across the six
// main models.
type Table1Report struct {
	Baseline, BPO, PAS []Row
}

// Table1 evaluates the three method grids.
func (a *Artifacts) Table1() (*Table1Report, error) {
	base, err := a.methodGrid(baselines.None{})
	if err != nil {
		return nil, err
	}
	bpo, err := a.methodGrid(a.BPO)
	if err != nil {
		return nil, err
	}
	pas, err := a.methodGrid(a.PASAPE())
	if err != nil {
		return nil, err
	}
	return &Table1Report{Baseline: base, BPO: bpo, PAS: pas}, nil
}

// pasGainOverBaseline returns mean(PAS avg) - mean(baseline avg): the
// paper's headline "+8.00".
func (r *Table1Report) pasGainOverBaseline() float64 {
	return meanRow(r.PAS).average() - meanRow(r.Baseline).average()
}

// pasGainOverBPO returns mean(PAS avg) - mean(BPO avg): the paper's
// "+6.09".
func (r *Table1Report) pasGainOverBPO() float64 {
	return meanRow(r.PAS).average() - meanRow(r.BPO).average()
}

// bpoUnstable reports the main models on which BPO scores below the
// no-APE baseline — the instability the paper calls out.
func (r *Table1Report) bpoUnstable() []string {
	var out []string
	for i := range r.BPO {
		if r.BPO[i].average() < r.Baseline[i].average() {
			out = append(out, r.BPO[i].MainModel)
		}
	}
	return out
}

func (r *Table1Report) String() string {
	var b strings.Builder
	b.WriteString("Table 1: PAS vs BPO vs no APE (win rates, %)\n")
	t := newTable("Main Model", "APE-model", "Arena-hard", "AlpacaEval 2.0", "AlpacaEval 2.0 (LC)", "Average", "Delta")
	writeGrid := func(rows []Row, deltas []Row) {
		for i, row := range rows {
			delta := ""
			if deltas != nil {
				delta = signed(row.average() - deltas[i].average())
			}
			t.addRow(row.MainModel, row.Method, f2(row.ArenaHard), f2(row.Alpaca), f2(row.AlpacaLC), f2(row.average()), delta)
		}
		mean := meanRow(rows)
		meanDelta := ""
		if deltas != nil {
			meanDelta = signed(mean.average() - meanRow(deltas).average())
		}
		t.addRow("Average", mean.Method, f2(mean.ArenaHard), f2(mean.Alpaca), f2(mean.AlpacaLC), f2(mean.average()), meanDelta)
	}
	writeGrid(r.Baseline, nil)
	writeGrid(r.BPO, nil)
	writeGrid(r.PAS, r.Baseline)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "PAS - baseline: %s   PAS - BPO: %s   BPO below baseline on: %v\n",
		signed(r.pasGainOverBaseline()), signed(r.pasGainOverBPO()), r.bpoUnstable())
	return b.String()
}

// Table2Report reproduces Table 2: PAS and BPO on the same base model
// (LLaMA-2-7B-instruct).
type Table2Report struct {
	BPO, PAS []Row
}

// Table2 evaluates BPO and the alternative-base PAS grid.
func (a *Artifacts) Table2() (*Table2Report, error) {
	bpo, err := a.methodGrid(a.BPO)
	if err != nil {
		return nil, err
	}
	pas, err := a.methodGrid(a.pasAltAPE())
	if err != nil {
		return nil, err
	}
	return &Table2Report{BPO: bpo, PAS: pas}, nil
}

// pasGainOverBPO returns the mean average-score gain of same-base PAS
// over BPO (the paper's "+3.41").
func (r *Table2Report) pasGainOverBPO() float64 {
	return meanRow(r.PAS).average() - meanRow(r.BPO).average()
}

func (r *Table2Report) String() string {
	var b strings.Builder
	b.WriteString("Table 2: PAS vs BPO with the same base model (LLaMA-2-7B)\n")
	t := newTable("Main Model", "Method", "Arena-hard", "AlpacaEval 2.0", "AlpacaEval 2.0 (LC)", "Average", "Delta")
	for _, row := range r.BPO {
		t.addRow(row.MainModel, row.Method, f2(row.ArenaHard), f2(row.Alpaca), f2(row.AlpacaLC), f2(row.average()), "")
	}
	mb := meanRow(r.BPO)
	t.addRow("Average", mb.Method, f2(mb.ArenaHard), f2(mb.Alpaca), f2(mb.AlpacaLC), f2(mb.average()), "")
	for i, row := range r.PAS {
		t.addRow(row.MainModel, row.Method, f2(row.ArenaHard), f2(row.Alpaca), f2(row.AlpacaLC), f2(row.average()),
			signed(row.average()-r.BPO[i].average()))
	}
	mp := meanRow(r.PAS)
	t.addRow("Average", mp.Method, f2(mp.ArenaHard), f2(mp.Alpaca), f2(mp.AlpacaLC), f2(mp.average()),
		signed(r.pasGainOverBPO()))
	b.WriteString(t.String())
	return b.String()
}

// Table3Report reproduces Table 3: the human-labour/flexibility matrix.
type Table3Report struct {
	Methods []baselines.Info
}

// Table3 returns the static capability audit.
func (a *Artifacts) Table3() *Table3Report {
	return &Table3Report{Methods: baselines.Methods()}
}

func (r *Table3Report) String() string {
	var b strings.Builder
	b.WriteString("Table 3: need for human labour and flexibility\n")
	t := newTable("Method", "No Human Labor", "LLM-Agnostic", "Task-Agnostic")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, m := range r.Methods {
		t.addRow(m.Name, mark(m.NoHumanLabor), mark(m.LLMAgnostic), mark(m.TaskAgnostic))
	}
	b.WriteString(t.String())
	return b.String()
}

// Table5Report reproduces Table 5: the selection/regeneration ablation.
type Table5Report struct {
	PAS, NoSelection []Row
}

// Table5 evaluates the primary PAS grid against the no-selection grid.
func (a *Artifacts) Table5() (*Table5Report, error) {
	pas, err := a.methodGrid(a.PASAPE())
	if err != nil {
		return nil, err
	}
	noSel, err := a.methodGrid(a.noSelectionAPE())
	if err != nil {
		return nil, err
	}
	return &Table5Report{PAS: pas, NoSelection: noSel}, nil
}

// ablationDrop returns mean(no-selection avg) - mean(PAS avg); negative
// values mean removing selection hurts (the paper reports -3.80).
func (r *Table5Report) ablationDrop() float64 {
	return meanRow(r.NoSelection).average() - meanRow(r.PAS).average()
}

func (r *Table5Report) String() string {
	var b strings.Builder
	b.WriteString("Table 5: ablation of the data selection + regeneration module\n")
	t := newTable("Main Model", "PAS-model", "Arena-hard", "AlpacaEval 2.0", "AlpacaEval 2.0 (LC)", "Average", "Delta")
	for _, row := range r.PAS {
		t.addRow(row.MainModel, "PAS", f2(row.ArenaHard), f2(row.Alpaca), f2(row.AlpacaLC), f2(row.average()), "")
	}
	mp := meanRow(r.PAS)
	t.addRow("Average", "PAS", f2(mp.ArenaHard), f2(mp.Alpaca), f2(mp.AlpacaLC), f2(mp.average()), "")
	for i, row := range r.NoSelection {
		t.addRow(row.MainModel, "wo selection", f2(row.ArenaHard), f2(row.Alpaca), f2(row.AlpacaLC), f2(row.average()),
			signed(row.average()-r.PAS[i].average()))
	}
	mn := meanRow(r.NoSelection)
	t.addRow("Average", "wo selection", f2(mn.ArenaHard), f2(mn.Alpaca), f2(mn.AlpacaLC), f2(mn.average()),
		signed(r.ablationDrop()))
	b.WriteString(t.String())
	return b.String()
}

// Figure7Report reproduces Figure 7: data-efficiency comparison.
type Figure7Report struct {
	Items []Figure7Item
}

// Figure7Item is one bar of the figure.
type Figure7Item struct {
	Method      string
	Consumption int
	// Efficiency is Consumption_method / Consumption_PAS; 1 for PAS.
	Efficiency float64
}

// Figure7 computes the efficiency ratios for the task-agnostic methods.
func (a *Artifacts) Figure7() (*Figure7Report, error) {
	rep := &Figure7Report{}
	for _, m := range baselines.Methods() {
		if m.DataConsumption == 0 {
			continue // OPRO/ProTeGi: not task-agnostic, excluded per §4.4.1
		}
		eff, err := baselines.Efficiency(m)
		if err != nil {
			return nil, err
		}
		rep.Items = append(rep.Items, Figure7Item{Method: m.Name, Consumption: m.DataConsumption, Efficiency: eff})
	}
	return rep, nil
}

func (r *Figure7Report) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: data consumption and efficiency relative to PAS\n")
	t := newTable("Method", "Training examples", "Consumption/PAS")
	for _, it := range r.Items {
		t.addRow(it.Method, fmt.Sprintf("%d", it.Consumption), fmt.Sprintf("%.2fx", it.Efficiency))
	}
	b.WriteString(t.String())
	return b.String()
}
