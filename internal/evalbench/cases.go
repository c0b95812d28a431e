package evalbench

import (
	"fmt"
	"strings"

	"repro/internal/facet"
	"repro/internal/simllm"
)

// Figure6Report reproduces Figure 6: the category distribution of the
// generated prompt-complementary dataset.
type Figure6Report struct {
	Total  int
	Counts []Figure6Item
}

// Figure6Item is one slice of the distribution.
type Figure6Item struct {
	Category facet.Category
	Count    int
	Fraction float64
}

// Figure6 tallies the primary build's dataset.
func (a *Artifacts) Figure6() *Figure6Report {
	counts := a.Build.Dataset.CategoryCounts()
	rep := &Figure6Report{Total: a.Build.Dataset.Len()}
	for _, c := range facet.Categories() {
		n := counts[c]
		frac := 0.0
		if rep.Total > 0 {
			frac = float64(n) / float64(rep.Total)
		}
		rep.Counts = append(rep.Counts, Figure6Item{Category: c, Count: n, Fraction: frac})
	}
	return rep
}

func (r *Figure6Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: prompt complementary dataset distribution (%d pairs)\n", r.Total)
	t := newTable("Category", "Pairs", "Share", "")
	for _, it := range r.Counts {
		bar := strings.Repeat("#", int(it.Fraction*100+0.5))
		t.addRow(it.Category.String(), fmt.Sprint(it.Count), pct(it.Fraction), bar)
	}
	b.WriteString(t.String())
	return b.String()
}

// Case is one case-study record: the paper's §4.6 qualitative examples.
type Case struct {
	Title      string
	Prompt     string
	Complement string
	Bare       string
	Augmented  string
	// Notes records the mechanised observation for the case (e.g. trap
	// avoided).
	Notes string
}

// CaseStudies reruns the paper's three case studies through the primary
// PAS model and a strong downstream model.
func (a *Artifacts) CaseStudies() ([]Case, error) {
	main, err := model(simllm.GPT4Turbo)
	if err != nil {
		return nil, err
	}
	pas := a.PASAPE()
	studies := []struct {
		title, prompt string
	}{
		{"Case 1: logic trap (Figure 1/2)",
			"If there are 10 birds on a tree and one is shot dead, how many birds are on the ground?"},
		{"Case 2: instruct following (Figure 8)",
			"How to boil water quickly in ancient times? Briefly, what should I know?"},
		{"Case 3: comprehensive answer (Figure 9)",
			"Does blood pressure increase or decrease when the body loses blood? Explain how blood pressure regulation works."},
	}
	var out []Case
	for i, st := range studies {
		salt := fmt.Sprintf("case/%d", i)
		augInput := pas.Transform(st.prompt, salt)
		c := Case{
			Title:      st.title,
			Prompt:     st.prompt,
			Complement: strings.TrimPrefix(augInput, st.prompt+"\n"),
			Bare:       main.Respond(st.prompt, simllm.Options{Salt: salt}),
			Augmented:  main.Respond(augInput, simllm.Options{Salt: salt}),
		}
		if tr, ok := facet.FindTrap(st.prompt); ok {
			// The paper's Figure 1 shows one failing bare sample; a single
			// draw is anecdote, so sample the trap case across seeds and
			// report the rates, displaying a seed with the paper's
			// contrast when one exists.
			const trials = 30
			var bareRight, augRight int
			for k := 0; k < trials; k++ {
				s := fmt.Sprintf("case/%d/%d", i, k)
				in := pas.Transform(st.prompt, s)
				bare := main.Respond(st.prompt, simllm.Options{Salt: s})
				augmented := main.Respond(in, simllm.Options{Salt: s})
				if tr.ClaimsRight(bare) {
					bareRight++
				}
				if tr.ClaimsRight(augmented) {
					augRight++
				}
				if !tr.ClaimsRight(bare) && tr.ClaimsRight(augmented) && !strings.Contains(c.Notes, "shown") {
					c.Bare, c.Augmented = bare, augmented
					c.Complement = strings.TrimPrefix(in, st.prompt+"\n")
					c.Notes = "shown: "
				}
			}
			c.Notes += fmt.Sprintf("trap avoided %d/%d bare vs %d/%d with PAS", bareRight, trials, augRight, trials)
		} else {
			j := a.Suite.judge
			c.Notes = fmt.Sprintf("judge score bare %.2f vs augmented %.2f",
				j.Score(st.prompt, c.Bare), j.Score(st.prompt, c.Augmented))
		}
		out = append(out, c)
	}
	return out, nil
}

// RenderCases formats case studies for the CLI.
func RenderCases(cases []Case) string {
	var b strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&b, "== %s ==\n", c.Title)
		fmt.Fprintf(&b, "User: %s\n", c.Prompt)
		fmt.Fprintf(&b, "PAS:  %s\n", c.Complement)
		fmt.Fprintf(&b, "-- response without PAS --\n%s\n", indent(c.Bare))
		fmt.Fprintf(&b, "-- response with PAS --\n%s\n", indent(c.Augmented))
		fmt.Fprintf(&b, "note: %s\n\n", c.Notes)
	}
	return b.String()
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
