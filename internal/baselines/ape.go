// Package baselines implements the comparison systems of the paper's
// evaluation: BPO (the previous state-of-the-art black-box prompt
// optimizer), zero-shot chain-of-thought, and the task-specific optimizers
// OPRO and ProTeGi/APO, plus the method metadata (human labour, data
// consumption, agnosticity) behind Table 3 and Figure 7.
package baselines

import "fmt"

// APE transforms a user prompt before it reaches the main model. PAS
// (package pas) and every baseline implement this interface, which is what
// makes the evaluation harness method-agnostic.
type APE interface {
	// Name identifies the method in reports.
	Name() string
	// Transform returns the text the main model should receive in place
	// of prompt. The salt decorrelates repeated calls.
	Transform(prompt, salt string) string
}

// None is the no-APE baseline: the prompt passes through untouched.
type None struct{}

// Name implements APE.
func (None) Name() string { return "None" }

// Transform implements APE.
func (None) Transform(prompt, _ string) string { return prompt }

// Info describes a method's cost and flexibility profile — the rows of
// Table 3 and the bars of Figure 7. Data consumption figures are the
// paper's (§4.4.1), in number of training examples.
type Info struct {
	Name            string
	DataConsumption int  // training examples consumed; 0 = not comparable
	NoHumanLabor    bool // fully automatic data pipeline
	LLMAgnostic     bool // one trained artefact serves any downstream LLM
	TaskAgnostic    bool // serves any task without per-task optimisation
}

// Methods returns the flexibility/efficiency records for every method in
// the paper's comparison, in Table 3 row order (PAS last).
func Methods() []Info {
	return []Info{
		{Name: "PPO", DataConsumption: 77000, NoHumanLabor: false, LLMAgnostic: false, TaskAgnostic: true},
		{Name: "DPO", DataConsumption: 170000, NoHumanLabor: false, LLMAgnostic: false, TaskAgnostic: true},
		{Name: "OPRO", DataConsumption: 0, NoHumanLabor: false, LLMAgnostic: false, TaskAgnostic: false},
		{Name: "ProTeGi", DataConsumption: 0, NoHumanLabor: false, LLMAgnostic: false, TaskAgnostic: false},
		{Name: "BPO", DataConsumption: 14000, NoHumanLabor: false, LLMAgnostic: true, TaskAgnostic: true},
		{Name: "PAS", DataConsumption: 9000, NoHumanLabor: true, LLMAgnostic: true, TaskAgnostic: true},
	}
}

// Efficiency returns Consumption_method / Consumption_PAS, the paper's
// §4.4.1 ratio. It returns an error for methods without a comparable data
// figure (OPRO and ProTeGi are not task-agnostic, so the paper excludes
// them).
func Efficiency(method Info) (float64, error) {
	if method.DataConsumption == 0 {
		return 0, fmt.Errorf("baselines: %s has no comparable data consumption", method.Name)
	}
	const pasConsumption = 9000
	return float64(method.DataConsumption) / pasConsumption, nil
}
