// Package simllm implements the simulated large language models that stand
// in for the GPT-4/GPT-3.5/Qwen2/LLaMA chat APIs of the paper's
// experiments (see DESIGN.md §2 for the substitution argument).
//
// A simulated model is text-in/text-out. It "understands" its input using
// the shared analyzers of internal/facet: it reads the needs out of the
// user prompt, reads directives out of any appended complementary prompt,
// and renders a response whose words actually deliver (or fail to deliver)
// those facets. Downstream, the LLM-as-judge recovers quality from the
// response words alone — so augmentation helps end-to-end for the same
// reason it does with real models: it redirects the responder's attention,
// which changes the text, which changes the judgement.
//
// All stochastic choices are deterministic functions of (input, model
// seed, salt), so experiments are exactly reproducible.
package simllm

import (
	"fmt"
	"sort"
)

// Profile describes a model's capabilities. Values are calibrated so that
// relative strengths mirror public leaderboard orderings of the paper's
// model roster; absolute values are arbitrary units.
type Profile struct {
	// Name is the public model identifier.
	Name string
	// Quality is overall generation strength in [0,1]: how reliably the
	// model covers a prompt's needs unaided.
	Quality float64
	// Obedience is instruction-following strength in [0,1]: how strongly
	// an explicit directive (from the user or from PAS) redirects
	// attention.
	Obedience float64
	// TrapResistance is the probability of spotting a logic trap with no
	// warning.
	TrapResistance float64
	// Verbosity scales response length (1 = neutral).
	Verbosity float64
}

// Validate reports whether the profile's parameters are in range.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("simllm: profile has empty name")
	}
	// Ordered, not a map: with several fields out of range the error
	// must name the same one every run.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Quality", p.Quality}, {"Obedience", p.Obedience}, {"TrapResistance", p.TrapResistance},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("simllm: profile %s: %s must be in [0,1], got %v", p.Name, f.name, f.v)
		}
	}
	if p.Verbosity <= 0 {
		return fmt.Errorf("simllm: profile %s: Verbosity must be positive, got %v", p.Name, p.Verbosity)
	}
	return nil
}

// The built-in roster. These are the models named in Tables 1, 2 and 5.
const (
	GPT4Turbo   = "gpt-4-turbo-2024-04-09"
	GPT41106    = "gpt-4-1106-preview"
	GPT40613    = "gpt-4-0613"
	GPT35Turbo  = "gpt-3.5-turbo-1106"
	Qwen272B    = "qwen2-72b-chat"
	llama370B   = "llama-3-70b-instruct"
	Qwen27B     = "qwen2-7b-chat"
	LLaMA27B    = "llama-2-7b-instruct"
	Baichuan13B = "baichuan-13b"
)

var registry = map[string]Profile{
	GPT4Turbo:   {Name: GPT4Turbo, Quality: 0.90, Obedience: 0.92, TrapResistance: 0.55, Verbosity: 1.30},
	GPT41106:    {Name: GPT41106, Quality: 0.88, Obedience: 0.90, TrapResistance: 0.50, Verbosity: 1.25},
	GPT40613:    {Name: GPT40613, Quality: 0.70, Obedience: 0.80, TrapResistance: 0.30, Verbosity: 1.00},
	GPT35Turbo:  {Name: GPT35Turbo, Quality: 0.55, Obedience: 0.70, TrapResistance: 0.15, Verbosity: 0.90},
	Qwen272B:    {Name: Qwen272B, Quality: 0.78, Obedience: 0.82, TrapResistance: 0.35, Verbosity: 1.10},
	llama370B:   {Name: llama370B, Quality: 0.76, Obedience: 0.80, TrapResistance: 0.32, Verbosity: 1.05},
	Qwen27B:     {Name: Qwen27B, Quality: 0.60, Obedience: 0.75, TrapResistance: 0.20, Verbosity: 1.00},
	LLaMA27B:    {Name: LLaMA27B, Quality: 0.45, Obedience: 0.60, TrapResistance: 0.10, Verbosity: 0.95},
	Baichuan13B: {Name: Baichuan13B, Quality: 0.58, Obedience: 0.72, TrapResistance: 0.20, Verbosity: 1.00},
}

// LookupProfile returns the built-in profile for a model name.
func LookupProfile(name string) (Profile, error) {
	p, ok := registry[name]
	if !ok {
		return Profile{}, fmt.Errorf("simllm: unknown model %q", name)
	}
	return p, nil
}

// Roster returns the built-in model names, sorted.
func Roster() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MainModels returns the six downstream models of Table 1, in the paper's
// row order.
func MainModels() []string {
	return []string{GPT4Turbo, GPT41106, GPT40613, GPT35Turbo, Qwen272B, llama370B}
}
