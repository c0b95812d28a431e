// Package datastats computes the §3.3 dataset analysis: the paper devotes
// a section to characterising the generated prompt-complementary dataset
// (category distribution, coverage, quality), and this package produces
// that report for any dataset — the generated one, the no-selection
// ablation, or a user-supplied JSONL file.
package datastats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/textkit"
)

// CategoryStats characterises one category's slice of the dataset.
type CategoryStats struct {
	Category facet.Category
	// Count and Share mirror Figure 6.
	Count int
	Share float64
	// MeanPromptWords / MeanComplementWords describe lengths.
	MeanPromptWords     float64
	MeanComplementWords float64
	// DefectRate is the ground-truth defective fraction (answer leak,
	// constraint conflict, over-reach, or no directives).
	DefectRate float64
	// TopFacets are the most demanded facets, in order.
	TopFacets []facet.Facet
}

// Report is the full dataset analysis.
type Report struct {
	Total int
	// Categories is ordered by taxonomy.
	Categories []CategoryStats
	// OverallDefectRate is the dataset-wide defective fraction.
	OverallDefectRate float64
	// FacetUsage is the global distribution over demanded facets.
	FacetUsage facet.Weights
	// WithinBudget is the fraction of complements respecting the
	// Figure 4 instruction to stay within ~30 words.
	WithinBudget float64
	// GiniShare measures category imbalance (0 = uniform, →1 = one
	// category dominates); the paper's distribution is mildly skewed
	// toward Coding and Q&A.
	GiniShare float64
}

// Analyze computes the report for a dataset.
// It returns an error for an empty dataset.
func Analyze(d *dataset.Dataset) (*Report, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("datastats: empty dataset")
	}
	rep := &Report{Total: d.Len()}

	type agg struct {
		count        int
		promptWords  int
		compWords    int
		defects      int
		facetCounts  facet.Weights
		withinBudget int
	}
	perCat := make(map[facet.Category]*agg)
	var global agg

	for _, p := range d.Pairs {
		c := p.CategoryOrDefault()
		a := perCat[c]
		if a == nil {
			a = &agg{}
			perCat[c] = a
		}
		pw := textkit.WordCount(p.Prompt)
		cw := textkit.WordCount(p.Complement)
		defective := isDefective(p)
		dirs := facet.DetectDirectives(p.Complement)

		for _, x := range []*agg{a, &global} {
			x.count++
			x.promptWords += pw
			x.compWords += cw
			if defective {
				x.defects++
			}
			if cw <= 34 { // Figure 4: "try to keep it within 30 words"
				x.withinBudget++
			}
			for _, f := range dirs.Facets() {
				x.facetCounts[f]++
			}
		}
	}

	var shares []float64
	for _, c := range facet.Categories() {
		a := perCat[c]
		if a == nil {
			rep.Categories = append(rep.Categories, CategoryStats{Category: c})
			shares = append(shares, 0)
			continue
		}
		n := float64(a.count)
		cs := CategoryStats{
			Category:            c,
			Count:               a.count,
			Share:               n / float64(rep.Total),
			MeanPromptWords:     float64(a.promptWords) / n,
			MeanComplementWords: float64(a.compWords) / n,
			DefectRate:          float64(a.defects) / n,
			TopFacets:           a.facetCounts.Top(3),
		}
		rep.Categories = append(rep.Categories, cs)
		shares = append(shares, cs.Share)
	}
	rep.OverallDefectRate = float64(global.defects) / float64(rep.Total)
	rep.WithinBudget = float64(global.withinBudget) / float64(rep.Total)
	rep.FacetUsage = global.facetCounts
	rep.GiniShare = gini(shares)
	return rep, nil
}

func isDefective(p dataset.Pair) bool {
	a := facet.AnalyzePrompt(p.Prompt)
	dirs := facet.DetectDirectives(p.Complement)
	return facet.DetectAnswerLeak(p.Complement) ||
		len(facet.ConflictingDirectives(a, dirs)) > 0 ||
		(dirs.Len() >= 4 && a.Complexity < 1) ||
		dirs.Len() == 0
}

// gini computes the Gini coefficient of the share vector.
func gini(shares []float64) float64 {
	n := len(shares)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	var cum, weighted float64
	for i, s := range sorted {
		weighted += float64(2*(i+1)-n-1) * s
		cum += s
	}
	if cum == 0 {
		return 0
	}
	return weighted / (float64(n) * cum)
}

// String renders the report as the §3.3-style analysis table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataset analysis (§3.3): %d pairs, defect rate %.2f%%, within 30-word budget %.1f%%, category Gini %.2f\n",
		r.Total, 100*r.OverallDefectRate, 100*r.WithinBudget, r.GiniShare)
	w := tabWriter()
	fmt.Fprintf(w, "Category\tPairs\tShare\tPrompt words\tComplement words\tDefects\tTop facets\n")
	for _, c := range r.Categories {
		facets := make([]string, len(c.TopFacets))
		for i, f := range c.TopFacets {
			facets[i] = f.String()
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f%%\t%.1f\t%.1f\t%.1f%%\t%s\n",
			c.Category, c.Count, 100*c.Share, c.MeanPromptWords, c.MeanComplementWords,
			100*c.DefectRate, strings.Join(facets, "+"))
	}
	b.WriteString(w.render())

	// Facet usage distribution.
	total := r.FacetUsage.Sum()
	if total > 0 {
		b.WriteString("demanded facets: ")
		var parts []string
		for _, f := range r.FacetUsage.Top(facet.Count) {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", f, 100*r.FacetUsage[f]/total))
		}
		b.WriteString(strings.Join(parts, ", "))
		b.WriteString("\n")
	}
	return b.String()
}

// tiny column-aligned writer (fmt/tabwriter-free to stay allocation lean).
type miniTab struct {
	rows [][]string
}

func tabWriter() *miniTab { return &miniTab{} }

func (m *miniTab) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		m.rows = append(m.rows, strings.Split(line, "\t"))
	}
	return len(p), nil
}

func (m *miniTab) render() string {
	var widths []int
	for _, row := range m.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range m.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
