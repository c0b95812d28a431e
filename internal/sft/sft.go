// Package sft simulates supervised fine-tuning of a base LLM on a
// (prompt, complementary prompt) dataset, producing the PAS model M_p of
// §3.4.
//
// Real SFT distils the training distribution into the model's behaviour:
// the paper's central empirical claim (the Table 5 ablation) is that the
// *quality of the training pairs propagates through fine-tuning into
// downstream win rates*. This package preserves exactly that causal path.
// Training fits, per category, the propensity of each facet being
// demanded — and it also fits the dataset's bad habits: the rates of
// answer-leak, constraint-conflict, and over-reach defects present in the
// pairs. A model trained on unselected data therefore reproduces those
// defects at inference time, and measurably loses benchmark points.
//
// The fitted policy is a plain counts-and-smoothing model; the base LLM's
// quality contributes execution noise (a 7B base renders the learned
// policy less faithfully than a 70B would), which is what separates
// Table 1 (Qwen2-7B base) from Table 2 (LLaMA-2-7B base).
package sft

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/simllm"
	"repro/internal/textkit"
)

// Policy is what fine-tuning learns from the pair dataset.
type Policy struct {
	// CategoryFacet[c][f] is the smoothed propensity of facet f being
	// demanded for prompts of category c.
	CategoryFacet [][]float64 `json:"category_facet"`
	// LeakRate is the fraction of training complements that directly
	// answered the prompt (defect class 3 of Figure 5).
	LeakRate float64 `json:"leak_rate"`
	// ConflictRate is the fraction that conflicted with the prompt's
	// explicit constraints (defect class 1/4).
	ConflictRate float64 `json:"conflict_rate"`
	// OverreachRate is the fraction demanding >= 4 facets on a simple
	// prompt (defect class 2).
	OverreachRate float64 `json:"overreach_rate"`
	// TrapDirective is, among trap prompts, the fraction whose
	// complement demanded vigilance.
	TrapDirective float64 `json:"trap_directive"`
	// AvgFacets is the mean number of directives per complement.
	AvgFacets float64 `json:"avg_facets"`
	// Examples is the training-set size.
	Examples int `json:"examples"`
}

// Config controls training.
type Config struct {
	// Smoothing is the Laplace pseudo-count per (category, facet) cell.
	Smoothing float64
	// Seed feeds the model's inference-time draws.
	Seed uint64
}

// DefaultConfig returns standard training settings.
func DefaultConfig() Config { return Config{Smoothing: 0.5, Seed: 0x5f7} }

// errNoData is returned when training on an empty dataset.
var errNoData = errors.New("sft: empty training set")

// Model is a fine-tuned prompt-complement model: the PAS model M_p.
type Model struct {
	policy Policy
	base   simllm.Profile
	seed   uint64
}

// Train fine-tunes base on the dataset and returns the resulting model.
func Train(base *simllm.Model, data *dataset.Dataset, cfg Config) (*Model, error) {
	if base == nil {
		return nil, errors.New("sft: nil base model")
	}
	if data == nil || data.Len() == 0 {
		return nil, errNoData
	}
	if cfg.Smoothing < 0 {
		return nil, fmt.Errorf("sft: smoothing must be >= 0, got %v", cfg.Smoothing)
	}

	counts := make([][]float64, facet.CategoryCount)
	for i := range counts {
		counts[i] = make([]float64, facet.Count)
		for j := range counts[i] {
			counts[i][j] = cfg.Smoothing
		}
	}
	var leaks, conflicts, overreaches, facetSum, withDirs float64
	var traps, trapWarned float64

	for _, p := range data.Pairs {
		a := facet.AnalyzePrompt(p.Prompt)
		cat := p.CategoryOrDefault()
		dirs := facet.DetectDirectives(p.Complement)

		if a.Trapped {
			traps++
			if dirs.Has(facet.TrapAware) {
				trapWarned++
			}
		}
		// Every pair shapes the learned facet policy — SFT does not know
		// which examples are defective, so conflict and over-reach pairs
		// corrupt the propensities in addition to registering as habits.
		if dirs.Len() > 0 {
			facetSum += float64(dirs.Len())
			withDirs++
			for _, f := range dirs.Facets() {
				counts[cat][f]++
			}
		}
		switch {
		case facet.DetectAnswerLeak(p.Complement):
			leaks++
		case len(facet.ConflictingDirectives(a, dirs)) > 0:
			conflicts++
		case dirs.Len() >= 4 && a.Complexity < 1:
			overreaches++
		}
	}

	n := float64(data.Len())
	pol := Policy{
		CategoryFacet: counts,
		LeakRate:      leaks / n,
		ConflictRate:  conflicts / n,
		OverreachRate: overreaches / n,
		Examples:      data.Len(),
	}
	if traps > 0 {
		pol.TrapDirective = trapWarned / traps
	} else {
		// No trap examples seen: the model neither learned nor unlearned
		// vigilance; fall back to the base's own instinct.
		pol.TrapDirective = base.Profile().TrapResistance
	}
	if withDirs > 0 {
		pol.AvgFacets = facetSum / withDirs
	} else {
		pol.AvgFacets = 2
	}
	// Normalise per category to propensities.
	for c := range pol.CategoryFacet {
		var total float64
		for _, v := range pol.CategoryFacet[c] {
			total += v
		}
		if total > 0 {
			for f := range pol.CategoryFacet[c] {
				pol.CategoryFacet[c][f] /= total
			}
		}
	}
	return &Model{policy: pol, base: base.Profile(), seed: cfg.Seed ^ textkit.Hash64(base.Name())}, nil
}

// Policy returns a copy of the fitted policy.
func (m *Model) Policy() Policy {
	out := m.policy
	out.CategoryFacet = make([][]float64, len(m.policy.CategoryFacet))
	for i, row := range m.policy.CategoryFacet {
		out.CategoryFacet[i] = append([]float64(nil), row...)
	}
	return out
}

// BaseName returns the fine-tuned base model's name.
func (m *Model) BaseName() string { return m.base.Name }

// Complement generates a complementary prompt for the user prompt — the
// PAS inference call p_c = M_p(p). The same salt yields the same output.
func (m *Model) Complement(prompt, salt string) string {
	a := facet.AnalyzePrompt(prompt)
	// Execution fidelity: how faithfully the base expresses the learned
	// policy. Weaker bases amplify learned defect rates and add facet
	// selection noise.
	infidelity := 1.6 - m.base.Quality

	if m.draw(prompt, salt, "leak") < m.policy.LeakRate*infidelity {
		return facet.RenderAnswerLeak(prompt + salt)
	}
	if a.Constraints.Len() > 0 && m.draw(prompt, salt, "conflict") < m.policy.ConflictRate*infidelity {
		return facet.RenderConflicting(a.Constraints.Facets()[0], prompt+salt)
	}
	if a.Complexity < 1 && m.draw(prompt, salt, "overreach") < m.policy.OverreachRate*infidelity {
		return facet.RenderDirectives([]facet.Facet{
			facet.Completeness, facet.Examples, facet.Context, facet.Safety, facet.Planning,
		}, prompt+salt)
	}

	// Base-capacity limits: a weaker base sometimes flubs the learned
	// mapping (falling back to a generic, weakly-useful complement) or
	// garbles one facet choice. This is why fine-tuning the same data
	// onto LLaMA-2-7B (Table 2) trails the Qwen2-7B build (Table 1).
	var want []facet.Facet
	if m.draw(prompt, salt, "flub") < 1.1*(0.8-m.base.Quality) {
		want = []facet.Facet{facet.Specificity}
	} else {
		want = m.pickFacets(a, prompt, salt)
		if len(want) > 0 && m.draw(prompt, salt, "garble") < 0.8*(0.8-m.base.Quality) {
			sub := facet.Facet(int(m.draw(prompt, salt, "garblepick") * float64(facet.Count)))
			if sub.Valid() && !conflictsConstraint(a, sub) {
				want[len(want)-1] = sub
			}
		}
	}
	if a.Trapped && m.draw(prompt, salt, "trapdir") < m.policy.TrapDirective {
		if !hasFacet(want, facet.TrapAware) {
			want = append([]facet.Facet{facet.TrapAware}, want...)
		}
	}
	if len(want) == 0 {
		want = []facet.Facet{facet.Specificity}
	}
	return facet.RenderDirectives(want, prompt+salt)
}

// pickFacets scores each facet by learned propensity times prompt need
// and keeps the top learned-average count.
func (m *Model) pickFacets(a facet.Analysis, prompt, salt string) []facet.Facet {
	noise := 0.25 * (1.2 - m.base.Quality)
	type scored struct {
		f facet.Facet
		s float64
	}
	cands := make([]scored, 0, facet.Count)
	for f := 0; f < facet.Count; f++ {
		prop := m.policy.CategoryFacet[a.Category][f]
		s := prop * (0.4 + a.Needs[f])
		s += (m.draw(prompt, salt, "pick/", facet.Facet(f).String()) - 0.5) * noise * prop * 4
		if conflictsConstraint(a, facet.Facet(f)) {
			// A well-trained policy learned to avoid these; residual
			// conflict habit is handled by ConflictRate above.
			continue
		}
		if s > 0 {
			cands = append(cands, scored{facet.Facet(f), s})
		}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].s > cands[j-1].s; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	k := int(m.policy.AvgFacets + 0.5)
	if k < 1 {
		k = 1
	}
	if k > 3 {
		k = 3
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]facet.Facet, len(cands))
	for i, c := range cands {
		out[i] = c.f
	}
	return out
}

// ComplementCheap is one generic specificity directive, rendered with
// no prompt analysis, no policy scoring, and no defect simulation —
// constant work per call. Nothing serves it: bench/pasperf's
// sft.complement_cheap_ns probe is its only caller, and it leaves with
// that probe (ROADMAP item 4's [benchmark] edit).
func (m *Model) ComplementCheap(prompt, salt string) string {
	return facet.RenderDirectives([]facet.Facet{facet.Specificity}, prompt+salt)
}

// draw is the model's pseudo-random source: a unit float fixed by the
// purpose (given in pieces), the salt and the prompt. It hashes
// purpose+"\x00"+salt+"\x00"+prompt piece by piece, so the ~18 draws of
// one Complement build no strings.
func (m *Model) draw(prompt, salt string, purpose ...string) float64 {
	h := textkit.NewHasher(m.seed)
	for _, p := range purpose {
		h = h.Add(p)
	}
	return h.Add("\x00").Add(salt).Add("\x00").Add(prompt).Unit()
}

func conflictsConstraint(a facet.Analysis, f facet.Facet) bool {
	for g := facet.Facet(0); int(g) < facet.Count; g++ {
		if a.Constraints.Has(g) && f != g && facet.ConflictsWith(f, g) {
			return true
		}
	}
	return false
}

func hasFacet(fs []facet.Facet, f facet.Facet) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

// persisted is the on-disk model format.
type persisted struct {
	Format string         `json:"format"`
	Base   simllm.Profile `json:"base"`
	Seed   uint64         `json:"seed"`
	Policy Policy         `json:"policy"`
}

const formatV1 = "pas-sft-v1"

// save writes the model to w as JSON.
func (m *Model) save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(persisted{Format: formatV1, Base: m.base, Seed: m.seed, Policy: m.policy})
}

// Bytes returns the model in its save serialization — the canonical
// byte form used for checkpoint snapshots and artifact comparison.
// save is deterministic (no maps, no timestamps), so equal models
// produce equal bytes.
func (m *Model) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sft: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sft: closing %s: %w", path, cerr)
		}
	}()
	return m.save(f)
}

// Load reads a model saved with save.
func Load(r io.Reader) (*Model, error) {
	var p persisted
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("sft: decoding model: %w", err)
	}
	if p.Format != formatV1 {
		return nil, fmt.Errorf("sft: unsupported model format %q", p.Format)
	}
	if err := p.Base.Validate(); err != nil {
		return nil, err
	}
	if len(p.Policy.CategoryFacet) != facet.CategoryCount {
		return nil, fmt.Errorf("sft: policy has %d categories, want %d",
			len(p.Policy.CategoryFacet), facet.CategoryCount)
	}
	for i, row := range p.Policy.CategoryFacet {
		if len(row) != facet.Count {
			return nil, fmt.Errorf("sft: policy category %d has %d facets, want %d", i, len(row), facet.Count)
		}
	}
	return &Model{policy: p.Policy, base: p.Base, seed: p.Seed}, nil
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sft: %w", err)
	}
	defer f.Close()
	return Load(f)
}
