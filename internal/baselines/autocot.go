package baselines

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/embed"
	"repro/internal/simllm"
)

// AutoCoT reproduces Auto-CoT (Zhang et al., §2.1 of the paper):
// cluster a task's questions, pick one representative per cluster,
// generate a zero-shot chain-of-thought rationale for each, and prepend
// those demonstrations to every future prompt. Unlike PAS it needs the
// task's question pool up front — it is a per-task artefact, which is
// why it does not appear in the paper's task-agnostic comparisons.
type AutoCoT struct {
	demos []string
}

// AutoCoTConfig controls demonstration construction.
type AutoCoTConfig struct {
	// Clusters is the number of demonstrations (one per cluster).
	Clusters int
	// DemoModel generates the rationales.
	DemoModel string
	// Seed drives clustering.
	Seed int64
	// MaxDemoWords truncates each rationale, following Auto-CoT's
	// simplicity heuristics.
	MaxDemoWords int
}

// DefaultAutoCoTConfig returns the settings of the original method
// (8 clusters).
func DefaultAutoCoTConfig() AutoCoTConfig {
	return AutoCoTConfig{Clusters: 8, DemoModel: simllm.GPT35Turbo, Seed: 1, MaxDemoWords: 60}
}

// NewAutoCoT builds demonstrations from the task's question pool.
func NewAutoCoT(questions []string, cfg AutoCoTConfig) (*AutoCoT, error) {
	if len(questions) == 0 {
		return nil, fmt.Errorf("baselines: autocot: no questions")
	}
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("baselines: autocot: Clusters must be >= 1, got %d", cfg.Clusters)
	}
	if cfg.MaxDemoWords < 10 {
		return nil, fmt.Errorf("baselines: autocot: MaxDemoWords must be >= 10, got %d", cfg.MaxDemoWords)
	}
	profile, err := simllm.LookupProfile(cfg.DemoModel)
	if err != nil {
		return nil, fmt.Errorf("baselines: autocot: %w", err)
	}
	demoModel, err := simllm.New(profile)
	if err != nil {
		return nil, err
	}

	enc, err := embed.New(embed.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := enc.Fit(questions); err != nil {
		return nil, fmt.Errorf("baselines: autocot: %w", err)
	}
	vecs := enc.EncodeBatch(questions)
	assign, err := cluster.KMeans(vecs, cfg.Clusters, 20, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("baselines: autocot: %w", err)
	}

	// Representative per cluster: first question assigned to it (the
	// original selects by proximity to centroid; first-in is a stable
	// deterministic simplification).
	picked := make(map[int]string)
	for i, q := range questions {
		c := assign[i]
		if _, ok := picked[c]; !ok {
			picked[c] = q
		}
	}
	a := &AutoCoT{}
	for c := 0; c < cfg.Clusters; c++ {
		q, ok := picked[c]
		if !ok {
			continue
		}
		rationale := demoModel.Respond(q+"\nPlease step by step; show your reasoning.",
			simllm.Options{Salt: fmt.Sprintf("autocot/%d", c), MaxSections: 2})
		a.demos = append(a.demos, fmt.Sprintf("Q: %s\nA: %s", q, truncateWords(rationale, cfg.MaxDemoWords)))
	}
	if len(a.demos) == 0 {
		return nil, fmt.Errorf("baselines: autocot: no demonstrations built")
	}
	return a, nil
}

// Name implements APE.
func (a *AutoCoT) Name() string { return "Auto-CoT" }

// Transform prepends the demonstrations and appends the CoT trigger.
func (a *AutoCoT) Transform(prompt, _ string) string {
	var b strings.Builder
	for _, d := range a.demos {
		b.WriteString(d)
		b.WriteString("\n\n")
	}
	b.WriteString("Q: ")
	b.WriteString(prompt)
	b.WriteString("\nPlease step by step; show your reasoning.")
	return b.String()
}

func truncateWords(s string, n int) string {
	fields := strings.Fields(s)
	if len(fields) <= n {
		return s
	}
	return strings.Join(fields[:n], " ")
}
