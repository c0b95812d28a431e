package abtest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/humaneval"
	"repro/internal/pipeline"
	"repro/internal/simllm"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Alpha: 0, MinPerArm: 10}); err == nil {
		t.Error("alpha 0 should fail")
	}
	if _, err := New(Config{Alpha: 1.5, MinPerArm: 10}); err == nil {
		t.Error("alpha > 1 should fail")
	}
	if _, err := New(Config{Alpha: 0.05, MinPerArm: 1}); err == nil {
		t.Error("tiny MinPerArm should fail")
	}
}

func TestAssignAlternatesAndBalances(t *testing.T) {
	test, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Arm]int{}
	for i := 0; i < 100; i++ {
		counts[test.Assign()]++
	}
	if counts[Control] != 50 || counts[Treatment] != 50 {
		t.Fatalf("unbalanced split: %v", counts)
	}
}

func TestRecordValidation(t *testing.T) {
	test, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := test.Record(Arm(7), true); err == nil {
		t.Error("bad arm should fail")
	}
	if err := test.Record(Control, true); err != nil {
		t.Fatal(err)
	}
	if test.rate(Control) != 1 {
		t.Fatal("rate wrong")
	}
	if test.rate(Treatment) != 0 {
		t.Fatal("empty arm rate should be 0")
	}
}

func TestClearWinnerIsSignificant(t *testing.T) {
	test, err := New(Config{Alpha: 0.05, MinPerArm: 100, Sequential: false})
	if err != nil {
		t.Fatal(err)
	}
	// 90% vs 70% over 200 per arm: decisive.
	for i := 0; i < 200; i++ {
		if err := test.Record(Control, i%10 < 7); err != nil {
			t.Fatal(err)
		}
		if err := test.Record(Treatment, i%10 < 9); err != nil {
			t.Fatal(err)
		}
	}
	r := test.Evaluate()
	if !r.Ready || !r.Significant || !r.TreatmentWins {
		t.Fatalf("verdict = %+v", r)
	}
	if !strings.Contains(r.String(), "treatment wins") {
		t.Errorf("render: %s", r.String())
	}
}

func TestNoDifferenceIsNotSignificant(t *testing.T) {
	test, err := New(Config{Alpha: 0.05, MinPerArm: 100, Sequential: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := test.Record(Control, i%5 < 4); err != nil {
			t.Fatal(err)
		}
		if err := test.Record(Treatment, i%5 < 4); err != nil {
			t.Fatal(err)
		}
	}
	r := test.Evaluate()
	if r.Significant {
		t.Fatalf("identical arms flagged significant: %+v", r)
	}
	if !strings.Contains(r.String(), "not significant") {
		t.Errorf("render: %s", r.String())
	}
}

func TestNotReadyBeforeMinSamples(t *testing.T) {
	test, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := test.Record(Control, false); err != nil {
			t.Fatal(err)
		}
		if err := test.Record(Treatment, true); err != nil {
			t.Fatal(err)
		}
	}
	r := test.Evaluate()
	if r.Ready || r.Significant {
		t.Fatalf("too-early verdict: %+v", r)
	}
	if !strings.Contains(r.String(), "collecting") {
		t.Errorf("render: %s", r.String())
	}
}

func TestSequentialIsStricterEarly(t *testing.T) {
	mk := func(sequential bool) Result {
		test, err := New(Config{Alpha: 0.05, MinPerArm: 50, Sequential: sequential})
		if err != nil {
			t.Fatal(err)
		}
		// Modest 82% vs 72% at exactly the minimum sample size.
		for i := 0; i < 50; i++ {
			if err := test.Record(Control, i%50 < 36); err != nil {
				t.Fatal(err)
			}
			if err := test.Record(Treatment, i%50 < 41); err != nil {
				t.Fatal(err)
			}
		}
		return test.Evaluate()
	}
	fixed := mk(false)
	seq := mk(true)
	if fixed.PValue != seq.PValue {
		t.Fatal("p-value should not depend on the stopping rule")
	}
	if seq.Significant && !fixed.Significant {
		t.Fatal("sequential must never be more permissive than fixed")
	}
}

func TestDegenerateAllSameOutcome(t *testing.T) {
	test, err := New(Config{Alpha: 0.05, MinPerArm: 10, Sequential: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := test.Record(Control, true); err != nil {
			t.Fatal(err)
		}
		if err := test.Record(Treatment, true); err != nil {
			t.Fatal(err)
		}
	}
	r := test.Evaluate()
	if r.Significant || r.PValue != 1 {
		t.Fatalf("all-success arms should be a clean null: %+v", r)
	}
}

// TestEndToEndABStudy runs a miniature online study with the real stack:
// traffic split between bare and PAS-augmented responses to a live
// model, availability judged by the rater pool. PAS must win.
func TestEndToEndABStudy(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.CorpusSize = 2500
	cfg.ClassifierExamples = 1500
	cfg.Augment.PerCategoryCap = 40
	cfg.Augment.HeavyCategoryCap = 80
	build, err := pipeline.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := humaneval.NewPool(5, 99)
	if err != nil {
		t.Fatal(err)
	}
	main := simllm.MustModel(simllm.GPT35Turbo)
	test, err := New(Config{Alpha: 0.05, MinPerArm: 60, Sequential: false})
	if err != nil {
		t.Fatal(err)
	}

	prompts := []string{
		"Describe the history and mechanism of how blood pressure regulation works.",
		"Analyze the trade offs of remote work versus office work.",
		"Give me advice on negotiating a salary offer.",
		"Explain the mechanism of antibiotic resistance.",
	}
	for i := 0; i < 160; i++ {
		p := prompts[i%len(prompts)]
		salt := fmt.Sprintf("ab/%d", i)
		arm := test.Assign()
		input := p
		if arm == Treatment {
			input = p + "\n" + build.Model.Complement(p, salt)
		}
		resp := main.Respond(input, simllm.Options{Salt: salt})
		// Availability signal: rubric score >= 4 from the first rater
		// (a stricter bar than the paper's >= 3, giving the test signal
		// on a mid-tier model).
		success := pool[i%len(pool)].Rate(p, resp) >= 4
		if err := test.Record(arm, success); err != nil {
			t.Fatal(err)
		}
	}
	r := test.Evaluate()
	if r.TreatmentRate <= r.ControlRate {
		t.Fatalf("PAS arm (%.2f) should beat control (%.2f)", r.TreatmentRate, r.ControlRate)
	}
	if !r.Ready {
		t.Fatalf("study underpowered: %+v", r)
	}
	t.Logf("A/B verdict: %s", r)
}

// DefaultConfig returns a conventional 5% two-sided test with 100
// samples per arm minimum.
func DefaultConfig() Config { return Config{Alpha: 0.05, MinPerArm: 100, Sequential: true} }
