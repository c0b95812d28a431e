package humaneval

import (
	"fmt"
	"testing"

	"repro/internal/simllm"
)

func TestFleissKappaValidation(t *testing.T) {
	if _, err := FleissKappa(nil); err == nil {
		t.Error("no items should fail")
	}
	if _, err := FleissKappa([][]int{{3}}); err == nil {
		t.Error("single rater should fail")
	}
	if _, err := FleissKappa([][]int{{3, 4}, {3}}); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, err := FleissKappa([][]int{{0, 4}}); err == nil {
		t.Error("rating 0 should fail")
	}
	if _, err := FleissKappa([][]int{{6, 4}}); err == nil {
		t.Error("rating 6 should fail")
	}
}

func TestFleissKappaPerfectAgreement(t *testing.T) {
	ratings := [][]int{{4, 4, 4}, {2, 2, 2}, {5, 5, 5}, {3, 3, 3}}
	k, err := FleissKappa(ratings)
	if err != nil {
		t.Fatal(err)
	}
	if k < 0.999 {
		t.Fatalf("perfect agreement kappa = %v, want ~1", k)
	}
}

func TestFleissKappaSingleCategoryConvention(t *testing.T) {
	k, err := FleissKappa([][]int{{3, 3}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("degenerate single-category kappa = %v, want 1", k)
	}
}

func TestFleissKappaDisagreementIsLow(t *testing.T) {
	// Raters systematically disagree across categories.
	ratings := [][]int{
		{1, 3, 5}, {2, 4, 1}, {5, 2, 3}, {4, 1, 2}, {3, 5, 4},
		{1, 4, 2}, {5, 3, 1}, {2, 5, 4}, {4, 2, 5}, {3, 1, 4},
	}
	k, err := FleissKappa(ratings)
	if err != nil {
		t.Fatal(err)
	}
	if k > 0.2 {
		t.Fatalf("disagreement kappa = %v, want near or below 0", k)
	}
}

// TestPoolKappaAboveChance validates the simulated rater pool: despite
// personal bias and noise, raters share the quality signal, so their
// agreement must sit clearly above chance (and below perfect).
func TestPoolKappaAboveChance(t *testing.T) {
	pool, err := NewPool(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := simllm.MustModel(simllm.GPT40613)
	prompts := []string{
		"Explain the mechanism of antibiotic resistance.",
		"Give me advice on keeping houseplants alive.",
		"Analyze the trade offs of sql versus nosql for a startup.",
		"Summarize this long article about coral reefs into key points.",
	}
	var ratings [][]int
	for i, p := range prompts {
		for k := 0; k < 10; k++ {
			resp := m.Respond(p, simllm.Options{Salt: fmt.Sprintf("k/%d/%d", i, k)})
			row := make([]int, len(pool))
			for j, r := range pool {
				row[j] = r.Rate(p, resp)
			}
			ratings = append(ratings, row)
		}
	}
	kappa, err := FleissKappa(ratings)
	if err != nil {
		t.Fatal(err)
	}
	if kappa < 0.05 {
		t.Fatalf("pool kappa = %.3f — raters look like pure noise", kappa)
	}
	if kappa > 0.95 {
		t.Fatalf("pool kappa = %.3f — raters have no individuality", kappa)
	}
}

// FleissKappa measures inter-rater agreement for the rubric study: the
// statistic human-evaluation sections report to show the raters are not
// noise. ratings[i][j] is rater j's 1-5 score for item i; every item
// must be scored by the same number (>= 2) of raters.
//
// Kappa is 1 for perfect agreement, 0 for chance-level, negative for
// systematic disagreement.
func FleissKappa(ratings [][]int) (float64, error) {
	if len(ratings) == 0 {
		return 0, fmt.Errorf("humaneval: no items")
	}
	raters := len(ratings[0])
	if raters < 2 {
		return 0, fmt.Errorf("humaneval: need >= 2 raters, got %d", raters)
	}
	const categories = 5
	counts := make([][categories]float64, len(ratings))
	var catTotals [categories]float64
	for i, row := range ratings {
		if len(row) != raters {
			return 0, fmt.Errorf("humaneval: item %d has %d ratings, want %d", i, len(row), raters)
		}
		for _, v := range row {
			if v < 1 || v > categories {
				return 0, fmt.Errorf("humaneval: rating %d out of 1-%d", v, categories)
			}
			counts[i][v-1]++
			catTotals[v-1]++
		}
	}

	n := float64(len(ratings))
	m := float64(raters)

	// Per-item agreement P_i and its mean.
	var pBar float64
	for i := range counts {
		var s float64
		for _, c := range counts[i] {
			s += c * c
		}
		pBar += (s - m) / (m * (m - 1))
	}
	pBar /= n

	// Chance agreement P_e from the marginal category distribution.
	var pe float64
	total := n * m
	for _, c := range catTotals {
		p := c / total
		pe += p * p
	}
	if pe == 1 {
		// All raters used one category everywhere: agreement is perfect
		// but kappa's denominator vanishes; report 1 by convention.
		return 1, nil
	}
	return (pBar - pe) / (1 - pe), nil
}
