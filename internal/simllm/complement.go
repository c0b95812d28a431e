package simllm

import "repro/internal/facet"

// GenerateComplement plays the Figure 4 few-shot call: given a user
// prompt and shots golden examples from the paper's D_golden, the model
// produces a complementary prompt. The simulation reads only how many
// examples guide it, not their text.
//
// Raw few-shot generation is imperfect — the paper's motivation for the
// selection-and-regeneration stage. The defect classes mirror the critic
// prompt of Figure 5: directly answering the prompt, conflicting with the
// user's constraints, over-reaching on a simple prompt, or drifting off
// target. Defect rates shrink with model quality and with the guidance of
// golden examples; resampling with a new salt redraws everything.
func (m *Model) GenerateComplement(prompt string, shots int, salt string) string {
	analysis := facet.AnalyzePrompt(prompt)
	guidance := 0.0
	if shots > 0 {
		guidance = 0.5
		if shots >= 4 {
			guidance = 1.0 // the paper uses 4-5 examples per category
		}
	}
	fidelity := 0.35 + 0.45*m.profile.Quality + 0.20*guidance
	if fidelity > 1 {
		fidelity = 1
	}

	// Defect draws. Each class has a base rate damped by fidelity.
	if m.draw(prompt, "leak/"+salt, salt) < 0.16*(1.6-fidelity) {
		return facet.RenderAnswerLeak(prompt + salt)
	}
	if analysis.Constraints.Len() > 0 && m.draw(prompt, "conflict/"+salt, salt) < 0.30*(1.6-fidelity) {
		constrained := analysis.Constraints.Facets()[0]
		return facet.RenderConflicting(constrained, prompt+salt)
	}
	if analysis.Complexity < 1 && m.draw(prompt, "overreach/"+salt, salt) < 0.22*(1.6-fidelity) {
		return facet.RenderDirectives([]facet.Facet{
			facet.Completeness, facet.Examples, facet.Context, facet.Safety, facet.Planning,
		}, prompt+salt)
	}

	// Healthy generation: demand the prompt's top needs, skipping facets
	// that conflict with its constraints.
	want := pickFacets(analysis, m, prompt, salt, fidelity)
	return facet.RenderDirectives(want, prompt+salt)
}

// pickFacets selects 2-3 facets to demand, favouring the prompt's top
// needs; low fidelity substitutes off-target facets.
func pickFacets(analysis facet.Analysis, m *Model, prompt, salt string, fidelity float64) []facet.Facet {
	top := analysis.Needs.Top(4)
	n := 2
	if m.draw(prompt, "facetcount/"+salt, salt) < 0.5 {
		n = 3
	}
	var out []facet.Facet
	for _, f := range top {
		if len(out) == n {
			break
		}
		if conflictsConstraint(analysis, f) {
			continue
		}
		out = append(out, f)
	}
	// Trap prompts always get the vigilance directive from a competent
	// generator — the paper's case study 1 behaviour.
	if analysis.Trapped && !contains(out, facet.TrapAware) {
		out = append([]facet.Facet{facet.TrapAware}, out...)
		if len(out) > n+1 {
			out = out[:n+1]
		}
	}
	// Off-target substitution at low fidelity.
	if len(out) > 0 && m.draw(prompt, "offtarget/"+salt, salt) < 0.35*(1.3-fidelity) {
		sub := facet.Facet(int(m.draw(prompt, "offpick/"+salt, salt) * float64(facet.Count)))
		if sub.Valid() && !conflictsConstraint(analysis, sub) {
			out[len(out)-1] = sub
		}
	}
	if len(out) == 0 {
		out = []facet.Facet{facet.Specificity}
	}
	return out
}

func conflictsConstraint(analysis facet.Analysis, f facet.Facet) bool {
	for _, g := range analysis.Constraints.Facets() {
		if f != g && facet.ConflictsWith(f, g) {
			return true
		}
	}
	return false
}

func contains(fs []facet.Facet, f facet.Facet) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

// Verdict is the critic's judgement of one (prompt, complement) pair,
// the output of the Figure 5 prompt.
type Verdict struct {
	// Correct reports whether the pair passed the critic.
	Correct bool
}

// CritiquePair plays the Figure 5 call: diagnose whether a complementary
// prompt is a valid supplement to the user prompt. Ground-truth defects
// are recovered from the texts; the critic's accuracy is imperfect and
// grows with model quality, so a weak critic lets some bad pairs through
// and discards some good ones.
func (m *Model) CritiquePair(prompt, complement string) Verdict {
	analysis := facet.AnalyzePrompt(prompt)
	dirs := facet.DetectDirectives(complement)

	// The defect classes of Figure 5, in the order the critic checks them.
	defective := facet.DetectAnswerLeak(complement) || // answers instead of supplementing
		len(facet.ConflictingDirectives(analysis, dirs)) > 0 || // conflicts with constraints
		dirs.Len() >= 4 && analysis.Complexity < 1 || // excessive additions
		dirs.Len() == 0 || // no usable directive
		offTargetScore(analysis, dirs) < 0.15 // deviates from intent

	accuracy := 0.80 + 0.18*m.profile.Quality
	flip := m.draw(prompt+"\x00"+complement, "critique", "") > accuracy
	return Verdict{Correct: defective == flip}
}

// offTargetScore measures how much the demanded facets overlap the
// prompt's needs: mean need weight of the demanded facets, normalised by
// the prompt's own top need.
func offTargetScore(analysis facet.Analysis, dirs facet.Set) float64 {
	fs := dirs.Facets()
	if len(fs) == 0 {
		return 0
	}
	var top float64
	for _, w := range analysis.Needs {
		if w > top {
			top = w
		}
	}
	if top == 0 {
		return 1
	}
	var sum float64
	for _, f := range fs {
		sum += analysis.Needs[f]
	}
	return sum / (float64(len(fs)) * top)
}
