package evalbench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/facet"
	"repro/internal/simllm"
)

// Prepare is the expensive step (~10s at quick scale); share one
// Artifacts across the package's tests.
var (
	prepOnce sync.Once
	prepArt  *Artifacts
	prepErr  error
)

func artifacts(t testing.TB) *Artifacts {
	t.Helper()
	prepOnce.Do(func() {
		prepArt, prepErr = Prepare(QuickOptions())
	})
	if prepErr != nil {
		t.Fatal(prepErr)
	}
	return prepArt
}

func TestNewSuiteValidation(t *testing.T) {
	cfg := defaultSuiteConfig()
	cfg.ArenaSize = 0
	if _, err := newSuite(cfg); err == nil {
		t.Error("zero arena should fail")
	}
	cfg = defaultSuiteConfig()
	cfg.ArenaReference = "nope"
	cfg.ArenaSize, cfg.AlpacaSize = 5, 5
	if _, err := newSuite(cfg); err == nil {
		t.Error("unknown reference should fail")
	}
}

func TestSuitePromptSets(t *testing.T) {
	art := artifacts(t)
	s := art.Suite
	if len(s.arena) != QuickOptions().Suite.ArenaSize {
		t.Fatalf("arena size %d", len(s.arena))
	}
	if len(s.alpaca) != QuickOptions().Suite.AlpacaSize {
		t.Fatalf("alpaca size %d", len(s.alpaca))
	}
	for _, p := range s.arena {
		if strings.TrimSpace(p) == "" {
			t.Fatal("empty arena prompt")
		}
	}
}

func TestEvaluateRowErrors(t *testing.T) {
	art := artifacts(t)
	if _, err := art.Suite.evaluateRow("unknown-model", baselines.None{}); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := art.Suite.evaluateRow(simllm.GPT40613, nil); err == nil {
		t.Error("nil APE should fail")
	}
}

func TestBaselineNearFiftyAgainstOwnReference(t *testing.T) {
	art := artifacts(t)
	// AlpacaEval's reference is GPT-4-1106-preview; that model without
	// APE must land near 50, as in the paper's Table 1.
	row, err := art.Suite.evaluateRow(simllm.GPT41106, baselines.None{})
	if err != nil {
		t.Fatal(err)
	}
	if row.Alpaca < 42 || row.Alpaca > 58 {
		t.Fatalf("self-reference AlpacaEval = %.2f, want near 50", row.Alpaca)
	}
}

// TestTable1Shape asserts the paper's headline findings hold:
// PAS > baseline everywhere, PAS > BPO everywhere, BPO unstable.
func TestTable1Shape(t *testing.T) {
	art := artifacts(t)
	rep, err := art.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Baseline) != 6 || len(rep.BPO) != 6 || len(rep.PAS) != 6 {
		t.Fatalf("grids should have 6 rows each")
	}
	for i := range rep.PAS {
		if rep.PAS[i].average() <= rep.Baseline[i].average() {
			t.Errorf("%s: PAS %.2f <= baseline %.2f",
				rep.PAS[i].MainModel, rep.PAS[i].average(), rep.Baseline[i].average())
		}
		if rep.PAS[i].average() <= rep.BPO[i].average() {
			t.Errorf("%s: PAS %.2f <= BPO %.2f",
				rep.PAS[i].MainModel, rep.PAS[i].average(), rep.BPO[i].average())
		}
	}
	if gain := rep.pasGainOverBaseline(); gain < 4 || gain > 16 {
		t.Errorf("PAS gain over baseline = %.2f, want the paper's order of magnitude (4-16)", gain)
	}
	if gain := rep.pasGainOverBPO(); gain < 3 {
		t.Errorf("PAS gain over BPO = %.2f, want >= 3", gain)
	}
	if len(rep.bpoUnstable()) == 0 {
		t.Error("BPO should fall below the baseline on at least one model")
	}
	out := rep.String()
	for _, want := range []string{"Table 1", "Arena-hard", "PAS", "BPO", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestTable2Shape asserts same-base PAS still beats BPO but trails the
// Qwen2-based build of Table 1.
func TestTable2Shape(t *testing.T) {
	art := artifacts(t)
	t2, err := art.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if t2.pasGainOverBPO() <= 0 {
		t.Errorf("same-base PAS should beat BPO: gain %.2f", t2.pasGainOverBPO())
	}
	t1, err := art.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if meanRow(t2.PAS).average() >= meanRow(t1.PAS).average() {
		t.Errorf("LLaMA-2-7B-based PAS (%.2f) should trail Qwen2-7B-based PAS (%.2f)",
			meanRow(t2.PAS).average(), meanRow(t1.PAS).average())
	}
	if !strings.Contains(t2.String(), "Table 2") {
		t.Error("report header missing")
	}
}

func TestTable3Shape(t *testing.T) {
	art := artifacts(t)
	rep := art.Table3()
	if len(rep.Methods) != 6 {
		t.Fatalf("6 methods expected, got %d", len(rep.Methods))
	}
	last := rep.Methods[len(rep.Methods)-1]
	if last.Name != "PAS" || !last.NoHumanLabor || !last.LLMAgnostic || !last.TaskAgnostic {
		t.Fatalf("PAS row wrong: %+v", last)
	}
	if !strings.Contains(rep.String(), "Task-Agnostic") {
		t.Error("render missing column")
	}
}

// TestTable5Shape asserts the ablation: dropping selection/regeneration
// costs points on every model.
func TestTable5Shape(t *testing.T) {
	art := artifacts(t)
	rep, err := art.Table5()
	if err != nil {
		t.Fatal(err)
	}
	drop := rep.ablationDrop()
	if drop >= -0.5 {
		t.Fatalf("ablation drop = %.2f, want a clear negative", drop)
	}
	if drop < -10 {
		t.Fatalf("ablation drop = %.2f, implausibly large", drop)
	}
	if !strings.Contains(rep.String(), "wo selection") {
		t.Error("render missing ablation rows")
	}
}

// TestHumanStudyShape asserts Table 4 / Figure 1: PAS improves the mean
// human-eval metrics and wins more GSB comparisons than it loses.
func TestHumanStudyShape(t *testing.T) {
	art := artifacts(t)
	rep, err := art.HumanStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Categories) != 8 {
		t.Fatalf("8 categories expected, got %d", len(rep.Categories))
	}
	mb, mp := rep.meanBaseline(), rep.meanPAS()
	if mp.Average <= mb.Average {
		t.Errorf("PAS average score %.2f <= baseline %.2f", mp.Average, mb.Average)
	}
	if mp.Availability < mb.Availability-0.02 {
		t.Errorf("PAS availability %.3f clearly below baseline %.3f", mp.Availability, mb.Availability)
	}
	var good, bad int
	for _, c := range rep.Categories {
		good += c.GSB.Good
		bad += c.GSB.Bad
	}
	if good <= bad {
		t.Errorf("GSB: PAS won %d vs lost %d", good, bad)
	}
	out := rep.String()
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "Figure 1(b)") {
		t.Error("render missing sections")
	}
}

func TestFigure6Shape(t *testing.T) {
	art := artifacts(t)
	rep := art.Figure6()
	if rep.Total != art.Build.Dataset.Len() {
		t.Fatalf("total %d != dataset %d", rep.Total, art.Build.Dataset.Len())
	}
	if len(rep.Counts) != 14 {
		t.Fatalf("14 categories expected, got %d", len(rep.Counts))
	}
	sum := 0
	for _, it := range rep.Counts {
		sum += it.Count
	}
	if sum != rep.Total {
		t.Fatalf("counts sum %d != total %d", sum, rep.Total)
	}
	if !strings.Contains(rep.String(), "Figure 6") {
		t.Error("render header missing")
	}
}

func TestFigure7Shape(t *testing.T) {
	art := artifacts(t)
	rep, err := art.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Items) != 4 {
		t.Fatalf("PAS, BPO, PPO, DPO expected; got %d items", len(rep.Items))
	}
	byName := map[string]Figure7Item{}
	for _, it := range rep.Items {
		byName[it.Method] = it
	}
	if byName["PAS"].Efficiency != 1 {
		t.Error("PAS efficiency should be 1x")
	}
	if byName["DPO"].Efficiency < byName["PPO"].Efficiency ||
		byName["PPO"].Efficiency < byName["BPO"].Efficiency {
		t.Error("efficiency ordering wrong")
	}
	if !strings.Contains(rep.String(), "Figure 7") {
		t.Error("render header missing")
	}
}

// TestCaseStudies asserts the paper's qualitative cases mechanically:
// case 1's logic trap is avoided with PAS.
func TestCaseStudies(t *testing.T) {
	art := artifacts(t)
	cases, err := art.CaseStudies()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("3 case studies expected, got %d", len(cases))
	}
	if !strings.Contains(cases[0].Notes, "trap avoided") {
		t.Errorf("case 1 trap not avoided with PAS: %s", cases[0].Notes)
	}
	for i, c := range cases {
		if c.Complement == "" || c.Bare == "" || c.Augmented == "" {
			t.Errorf("case %d incomplete: %+v", i, c)
		}
	}
	if !strings.Contains(RenderCases(cases), "Case 1") {
		t.Error("render missing case title")
	}
}

func TestHumanStudyValidation(t *testing.T) {
	art := artifacts(t)
	bad := *art
	bad.Options.HumanPrompts = 0
	if _, err := bad.HumanStudy(); err == nil {
		t.Error("zero prompts should fail")
	}
	bad = *art
	bad.Options.Raters = 0
	if _, err := bad.HumanStudy(); err == nil {
		t.Error("zero raters should fail")
	}
}

func TestMeanRowEmpty(t *testing.T) {
	if meanRow(nil).average() != 0 {
		t.Error("empty mean row should be zero")
	}
}

// TestDomainStudyShape verifies the §3.3 specialization claim: a PAS
// trained only on one category's data matches the general system on that
// domain (within noise) while using far fewer pairs, and both clearly
// beat the no-APE baseline.
func TestDomainStudyShape(t *testing.T) {
	art := artifacts(t)
	rep, err := art.DomainStudy(facet.Coding, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 || rep.Pairs >= art.Build.Dataset.Len() {
		t.Fatalf("specialised dataset size %d vs general %d", rep.Pairs, art.Build.Dataset.Len())
	}
	if rep.General <= rep.None || rep.Specialized <= rep.None {
		t.Fatalf("PAS variants must beat baseline: none=%.2f general=%.2f specialised=%.2f",
			rep.None, rep.General, rep.Specialized)
	}
	if rep.Specialized < rep.General-3 {
		t.Fatalf("specialised (%.2f) should be within noise of general (%.2f)", rep.Specialized, rep.General)
	}
	if !strings.Contains(rep.String(), "Domain specialization") {
		t.Error("render header missing")
	}
}

func TestDomainStudyValidation(t *testing.T) {
	art := artifacts(t)
	if _, err := art.DomainStudy(facet.Category(99), 10); err == nil {
		t.Error("invalid category should fail")
	}
	if _, err := art.DomainStudy(facet.Coding, 0); err == nil {
		t.Error("zero prompts should fail")
	}
}

// TestLeaderboardOrdersByAugmentation checks the joint Bradley-Terry
// ranking: the same main model climbs the leaderboard when PAS is
// plugged in, and a stronger main model outranks a weaker one.
func TestLeaderboardOrdersByAugmentation(t *testing.T) {
	art := artifacts(t)
	rep, err := art.Leaderboard([]Contender{
		{MainModel: simllm.GPT40613, APE: baselines.None{}},
		{MainModel: simllm.GPT40613, APE: art.PASAPE()},
		{MainModel: simllm.GPT35Turbo, APE: baselines.None{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 3 {
		t.Fatalf("entries = %d", len(rep.Entries))
	}
	rank := map[string]int{}
	for i, e := range rep.Entries {
		rank[e.Name] = i
	}
	pas := rank[simllm.GPT40613+" + PAS"]
	bare := rank[simllm.GPT40613+" + None"]
	weak := rank[simllm.GPT35Turbo+" + None"]
	if pas >= bare {
		t.Errorf("PAS-augmented system ranked %d, bare %d", pas, bare)
	}
	if bare >= weak {
		t.Errorf("GPT-4-0613 ranked %d, GPT-3.5 %d", bare, weak)
	}
	if rep.Games == 0 {
		t.Error("no games played")
	}
	if !strings.Contains(rep.String(), "leaderboard") {
		t.Error("render header missing")
	}
}

func TestLeaderboardValidation(t *testing.T) {
	art := artifacts(t)
	if _, err := art.Leaderboard(nil); err == nil {
		t.Error("too few contenders should fail")
	}
	if _, err := art.Leaderboard([]Contender{
		{MainModel: simllm.GPT40613, APE: baselines.None{}},
		{MainModel: simllm.GPT40613, APE: nil},
	}); err == nil {
		t.Error("nil APE should fail")
	}
	if _, err := art.Leaderboard([]Contender{
		{MainModel: "bogus", APE: baselines.None{}},
		{MainModel: simllm.GPT40613, APE: baselines.None{}},
	}); err == nil {
		t.Error("unknown model should fail")
	}
}

// TestRunAllDeterministicExport is the reproduction guarantee at report
// level: two complete experiment runs over the same artifacts export
// byte-identical JSON.
func TestRunAllDeterministicExport(t *testing.T) {
	art := artifacts(t)
	a, err := art.RunAll(20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := art.RunAll(20)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatal("identical runs exported different JSON")
	}
	// The bundle must contain every experiment.
	for _, key := range []string{`"table1"`, `"table2"`, `"table3"`, `"table4_fig1"`,
		`"table5"`, `"fig6"`, `"fig7"`, `"domain"`, `"leaderboard"`, `"cases"`} {
		if !strings.Contains(bufA.String(), key) {
			t.Errorf("export missing %s", key)
		}
	}
	// And the combined text rendering holds every section.
	text := a.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Figure 6", "Figure 7", "Domain specialization", "leaderboard", "Case 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

// TestJudgeAgreement validates the judge substrate: it should agree with
// the rater majority clearly above chance — the same sanity check
// judge-based benchmarks report against human preferences.
func TestJudgeAgreement(t *testing.T) {
	art := artifacts(t)
	rep, err := art.judgeAgreement(60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 60 {
		t.Fatalf("N = %d", rep.N)
	}
	if rate := rep.rate(); rate < 0.6 {
		t.Fatalf("judge-human agreement = %.2f, want >= 0.6 (chance is 0.5)", rate)
	}
	if !strings.Contains(rep.String(), "agreement") {
		t.Error("render missing")
	}
	if _, err := art.judgeAgreement(0); err == nil {
		t.Error("zero prompts should fail")
	}
}

// TestCategoryBreakdown checks the per-category decomposition: PAS wins
// in the majority of categories, and the per-category means aggregate to
// roughly the row-level AlpacaEval score.
func TestCategoryBreakdown(t *testing.T) {
	art := artifacts(t)
	base, err := art.Suite.categoryBreakdown(simllm.GPT40613, baselines.None{})
	if err != nil {
		t.Fatal(err)
	}
	pas, err := art.Suite.categoryBreakdown(simllm.GPT40613, art.PASAPE())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 || len(base.Rows) != len(pas.Rows) {
		t.Fatalf("row counts: base %d, pas %d", len(base.Rows), len(pas.Rows))
	}
	wins := 0
	var totalN int
	var weighted float64
	for i := range pas.Rows {
		if pas.Rows[i].Category != base.Rows[i].Category {
			t.Fatal("category alignment broken")
		}
		if pas.Rows[i].WinProb > base.Rows[i].WinProb {
			wins++
		}
		totalN += pas.Rows[i].N
		weighted += pas.Rows[i].WinProb * float64(pas.Rows[i].N)
	}
	if wins*2 < len(pas.Rows) {
		t.Errorf("PAS beat baseline in only %d/%d categories", wins, len(pas.Rows))
	}
	// Aggregation consistency with the row-level metric.
	row, err := art.Suite.evaluateRow(simllm.GPT40613, art.PASAPE())
	if err != nil {
		t.Fatal(err)
	}
	if agg := weighted / float64(totalN); agg < row.Alpaca-0.01 || agg > row.Alpaca+0.01 {
		t.Errorf("weighted category mean %.3f != row alpaca %.3f", agg, row.Alpaca)
	}
	if !strings.Contains(pas.String(), "by category") {
		t.Error("render missing")
	}
	if _, err := art.Suite.categoryBreakdown(simllm.GPT40613, nil); err == nil {
		t.Error("nil APE should fail")
	}
}

// TestShapeHoldsAcrossSeeds guards against seed luck: the headline
// finding (PAS beats the no-APE baseline) must hold when every pipeline
// seed changes.
func TestShapeHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second quick-scale artifact set")
	}
	opt := QuickOptions()
	opt.Build.Seed += 1000
	opt.Suite.Seed += 1000
	art, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := art.Suite.evaluateRow(simllm.GPT40613, baselines.None{})
	if err != nil {
		t.Fatal(err)
	}
	pas, err := art.Suite.evaluateRow(simllm.GPT40613, art.PASAPE())
	if err != nil {
		t.Fatal(err)
	}
	if pas.average() <= base.average() {
		t.Fatalf("alternate seed broke the headline: PAS %.2f vs baseline %.2f",
			pas.average(), base.average())
	}
}
