package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/facet"
)

// Scorer evaluates a candidate instruction on a task's training set and
// returns a score (higher is better). The task-specific optimizers below
// spend many Scorer calls per task — the cost that makes them, per the
// paper's Table 3, neither task-agnostic nor human-labour-free (the
// training set with its objective must be assembled per task).
type Scorer func(instruction string) float64

// OptimizeResult reports an optimisation run.
type OptimizeResult struct {
	// Best is the optimised instruction, ready to serve as a Static APE.
	Best Static
	// Score is the best training score found.
	Score float64
	// ScorerCalls counts objective evaluations — the efficiency cost.
	ScorerCalls int
}

// candidate instructions are rendered facet subsets; search moves by
// adding, removing, or swapping one facet.
type candidate struct {
	facets facet.Set
	score  float64
}

func renderCandidate(s facet.Set, variant string) string {
	return facet.RenderDirectives(s.Facets(), variant)
}

func mutate(s facet.Set, rng *rand.Rand) facet.Set {
	f := facet.Facet(rng.Intn(facet.Count))
	switch rng.Intn(3) {
	case 0:
		return s.With(f)
	case 1:
		return s.Without(f)
	default:
		g := facet.Facet(rng.Intn(facet.Count))
		return s.Without(f).With(g)
	}
}

// OptimizeOPRO reproduces OPRO (Yang et al.): the optimizer keeps a
// trajectory of scored instructions and proposes new candidates informed
// by the best so far, accepting improvements.
func OptimizeOPRO(score Scorer, iterations, proposalsPerIter int, seed int64) (OptimizeResult, error) {
	if score == nil {
		return OptimizeResult{}, fmt.Errorf("baselines: opro: nil scorer")
	}
	if iterations < 1 || proposalsPerIter < 1 {
		return OptimizeResult{}, fmt.Errorf("baselines: opro: iterations and proposals must be >= 1 (got %d, %d)",
			iterations, proposalsPerIter)
	}
	rng := rand.New(rand.NewSource(seed))
	calls := 0
	eval := func(s facet.Set) candidate {
		calls++
		return candidate{facets: s, score: score(renderCandidate(s, fmt.Sprintf("opro/%d", calls)))}
	}
	best := eval(facet.NewSet(facet.Reasoning)) // seed instruction
	for it := 0; it < iterations; it++ {
		for p := 0; p < proposalsPerIter; p++ {
			cand := eval(mutate(best.facets, rng))
			if cand.score > best.score {
				best = cand
			}
		}
	}
	return OptimizeResult{
		Best:        Static{MethodName: "OPRO", Instruction: renderCandidate(best.facets, "opro/final")},
		Score:       best.score,
		ScorerCalls: calls,
	}, nil
}

// OptimizeProTeGi reproduces ProTeGi/APO (Pryzant et al.): beam search
// where each beam member is expanded by "textual gradient" edits —
// candidate fixes for the facets the current instruction fails to demand.
func OptimizeProTeGi(score Scorer, rounds, beamWidth int, seed int64) (OptimizeResult, error) {
	if score == nil {
		return OptimizeResult{}, fmt.Errorf("baselines: protegi: nil scorer")
	}
	if rounds < 1 || beamWidth < 1 {
		return OptimizeResult{}, fmt.Errorf("baselines: protegi: rounds and beam width must be >= 1 (got %d, %d)",
			rounds, beamWidth)
	}
	rng := rand.New(rand.NewSource(seed))
	calls := 0
	eval := func(s facet.Set) candidate {
		calls++
		return candidate{facets: s, score: score(renderCandidate(s, fmt.Sprintf("protegi/%d", calls)))}
	}
	beam := []candidate{eval(facet.NewSet(facet.Specificity))}
	for r := 0; r < rounds; r++ {
		var expanded []candidate
		expanded = append(expanded, beam...)
		for _, b := range beam {
			// Gradient step: propose adding each missing facet the
			// criticism pass flags (simulated as two random absent
			// facets), plus one removal.
			for k := 0; k < 2; k++ {
				f := facet.Facet(rng.Intn(facet.Count))
				if !b.facets.Has(f) {
					expanded = append(expanded, eval(b.facets.With(f)))
				}
			}
			if b.facets.Len() > 1 {
				fs := b.facets.Facets()
				expanded = append(expanded, eval(b.facets.Without(fs[rng.Intn(len(fs))])))
			}
		}
		// Keep the top beamWidth.
		for i := 1; i < len(expanded); i++ {
			for j := i; j > 0 && expanded[j].score > expanded[j-1].score; j-- {
				expanded[j], expanded[j-1] = expanded[j-1], expanded[j]
			}
		}
		if len(expanded) > beamWidth {
			expanded = expanded[:beamWidth]
		}
		beam = expanded
	}
	return OptimizeResult{
		Best:        Static{MethodName: "ProTeGi", Instruction: renderCandidate(beam[0].facets, "protegi/final")},
		Score:       beam[0].score,
		ScorerCalls: calls,
	}, nil
}

// Static wraps a fixed learned instruction as an APE, the serving form of
// the task-specific optimizers.
type Static struct {
	// MethodName is the producing optimizer's name.
	MethodName string
	// Instruction is appended to every prompt.
	Instruction string
}

// Name implements APE.
func (s Static) Name() string { return s.MethodName }

// Transform implements APE.
func (s Static) Transform(prompt, _ string) string {
	if s.Instruction == "" {
		return prompt
	}
	return prompt + "\n" + s.Instruction
}
