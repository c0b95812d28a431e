// Package humaneval simulates the paper's §4.5 human evaluation: a pool
// of raters scores responses on a 1-5 rubric, from which the Table 4
// metrics (full-mark proportion, average score, availability proportion)
// and the Figure 1 GSB (good/same/bad) win rates are computed.
//
// Each simulated rater is an independent judge with personal length
// preference, strictness bias, and noise — the inter-rater disagreement
// that makes human evaluation noisy is part of the model.
package humaneval

import (
	"fmt"

	"repro/internal/facet"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/textkit"
)

// Category is one of the eight §4.5 evaluation categories. Each maps to a
// prompt-generation source category so the harness can sample on-theme
// prompts.
type Category struct {
	// Name is the paper's label (Table 4 / Figure 1).
	Name string
	// Source is the corpus category prompts are drawn from.
	Source facet.Category
}

// Categories returns the paper's eight human-evaluation categories in
// Table 4 row order.
func Categories() []Category {
	return []Category{
		{Name: "Analysis and Judgment", Source: facet.Analytical},
		{Name: "Subjective Advice", Source: facet.Advice},
		{Name: "Subjective Recommendation", Source: facet.Brainstorm},
		{Name: "Common Sense", Source: facet.QA},
		{Name: "Event Query", Source: facet.Summarization},
		{Name: "Entity Query", Source: facet.Extraction},
		{Name: "Industry Knowledge", Source: facet.Coding},
		{Name: "Academic Knowledge", Source: facet.Knowledge},
	}
}

// Rater is one simulated human evaluator.
type Rater struct {
	noise float64
	seed  uint64
	judge *judge.Judge
}

// NewPool creates n raters with individually varied bias and noise.
func NewPool(n int, seed uint64) ([]Rater, error) {
	if n < 1 {
		return nil, fmt.Errorf("humaneval: pool size must be >= 1, got %d", n)
	}
	pool := make([]Rater, n)
	for i := range pool {
		// Vary length preference in [0.05, 0.35] and personal noise in
		// [0.15, 0.5] — enough individuality that raters disagree on
		// borderline answers, small enough that inter-rater agreement
		// (Fleiss kappa) stays clearly above chance, as with real pools.
		cfg := judge.Config{
			LengthBias: 0.05 + 0.30*float64(i%7)/6,
			Noise:      0.15 + 0.35*float64(i%5)/4,
			Seed:       seed + uint64(i)*0x9e3779b9,
		}
		j, err := judge.New(cfg)
		if err != nil {
			return nil, err
		}
		pool[i] = Rater{noise: cfg.Noise, seed: cfg.Seed, judge: j}
	}
	return pool, nil
}

// Rate scores a response on the 1-5 rubric. 5 is a full mark; >= 3 counts
// as "available" (usable answer), matching the paper's metrics.
func (r Rater) Rate(prompt, response string) int {
	s := r.judge.Score(prompt, response)
	// Personal mood noise: deterministic per (rater, prompt, response) but
	// different across raters, so the pool genuinely disagrees.
	s += (textkit.Unit(prompt+"\x00"+response, r.seed) - 0.5) * 2 * r.noise
	// Map the judge's open scale onto the rubric. Thresholds are fixed
	// so that a typical unaided mid-tier response lands around 3-4.
	switch {
	case s >= 3.9:
		return 5
	case s >= 3.0:
		return 4
	case s >= 2.0:
		return 3
	case s >= 1.0:
		return 2
	default:
		return 1
	}
}

// Summary holds the Table 4 metrics for one condition.
type Summary struct {
	// FullMark is the proportion of ratings equal to 5.
	FullMark float64
	// Average is the mean rating.
	Average float64
	// Availability is the proportion of ratings >= 3.
	Availability float64
	// N is the number of ratings aggregated.
	N int
}

// Summarize aggregates ratings into Table 4 metrics.
// It returns an error for an empty or out-of-range rating set.
func Summarize(ratings []int) (Summary, error) {
	if len(ratings) == 0 {
		return Summary{}, fmt.Errorf("humaneval: no ratings")
	}
	var sum Summary
	var total float64
	for _, v := range ratings {
		if v < 1 || v > 5 {
			return Summary{}, fmt.Errorf("humaneval: rating %d out of 1-5", v)
		}
		total += float64(v)
		if v == 5 {
			sum.FullMark++
		}
		if v >= 3 {
			sum.Availability++
		}
	}
	n := float64(len(ratings))
	sum.FullMark /= n
	sum.Availability /= n
	sum.Average = total / n
	sum.N = len(ratings)
	return sum, nil
}

// GSB tallies a good/same/bad comparison: for each prompt, the rater
// majority decides whether system A was better (Good), indistinguishable
// (Same), or worse (Bad) than system B.
type GSB struct {
	Good, Same, Bad int
}

// WinRate returns Good / (Good + Same + Bad), the Figure 1 percentage.
func (g GSB) WinRate() float64 {
	total := g.Good + g.Same + g.Bad
	if total == 0 {
		return 0
	}
	return float64(g.Good) / float64(total)
}

// CompareGSB runs the pool over one prompt's two responses and returns the
// majority verdict as a single-prompt GSB increment.
func CompareGSB(pool []Rater, prompt, respA, respB string) (GSB, error) {
	if len(pool) == 0 {
		return GSB{}, fmt.Errorf("humaneval: empty rater pool")
	}
	var a, b int
	for _, r := range pool {
		ra := r.Rate(prompt, respA)
		rb := r.Rate(prompt, respB)
		switch {
		case ra > rb:
			a++
		case rb > ra:
			b++
		}
	}
	var g GSB
	switch {
	case a > b:
		g.Good++
	case b > a:
		g.Bad++
	default:
		g.Same++
	}
	return g, nil
}

// Add accumulates another GSB tally.
func (g *GSB) Add(other GSB) {
	g.Good += other.Good
	g.Same += other.Same
	g.Bad += other.Bad
}

// MeanSummaries averages a slice of summaries (the Table 4 "Average" row),
// weighting each summary equally as the paper does across categories.
func MeanSummaries(sums []Summary) Summary {
	if len(sums) == 0 {
		return Summary{}
	}
	var fm, av, avail []float64
	n := 0
	for _, s := range sums {
		fm = append(fm, s.FullMark)
		av = append(av, s.Average)
		avail = append(avail, s.Availability)
		n += s.N
	}
	return Summary{
		FullMark:     metrics.Mean(fm),
		Average:      metrics.Mean(av),
		Availability: metrics.Mean(avail),
		N:            n,
	}
}
