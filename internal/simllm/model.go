package simllm

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/facet"
	"repro/internal/textkit"
)

// Message is one turn of a chat conversation.
type Message struct {
	// Role is "system", "user", or "assistant".
	Role string
	// Content is the turn's text.
	Content string
}

// Options control one generation call.
type Options struct {
	// Temperature scales decision noise; 0 is near-deterministic choice,
	// 1 is the default sampling regime.
	Temperature float64
	// Salt decorrelates repeated calls on the same input (a stand-in for
	// resampling). Same salt, same output.
	Salt string
	// MaxSections caps the number of facet sections rendered; 0 means
	// the model's natural length.
	MaxSections int
}

// Chatter is any chat-capable downstream LLM: an in-process simulated
// model (*Model), a remote API-backed one (chatapi.Remote), or a fault
// script in front of either (resilience.FaultyChatter). ChatContext
// runs under the caller's context: a context that has already ended is
// answered with its error, and a remote call's deadline bounds its
// retries.
type Chatter interface {
	Name() string
	ChatContext(ctx context.Context, messages []Message, opt Options) (string, error)
}

// Model is one simulated chat LLM.
type Model struct {
	profile Profile
	seed    uint64
}

// New creates a model from a profile.
func New(p Profile) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{profile: p, seed: textkit.Hash64(p.Name)}, nil
}

// MustModel returns the built-in model with the given name, panicking on
// unknown names; use for the fixed rosters in experiments and examples.
func MustModel(name string) *Model {
	p, err := LookupProfile(name)
	if err != nil {
		panic(err)
	}
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the model's public identifier.
func (m *Model) Name() string { return m.profile.Name }

// Profile returns a copy of the model's capability profile.
func (m *Model) Profile() Profile { return m.profile }

// ChatContext runs a chat completion over the messages and returns the
// assistant's reply. Only user and system content conditions the reply;
// the last user message is treated as the prompt and earlier user/system
// turns as context, matching how the plug-and-play system concatenates
// prompt and complementary prompt into one user turn. The reply is
// computed synchronously in-process, so ctx is checked once, before it:
// a request whose caller has gone is never answered.
func (m *Model) ChatContext(ctx context.Context, messages []Message, opt Options) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if len(messages) == 0 {
		return "", fmt.Errorf("simllm: %s: empty message list", m.profile.Name)
	}
	var input strings.Builder
	for _, msg := range messages {
		switch msg.Role {
		case "user", "system":
			if input.Len() > 0 {
				input.WriteString("\n")
			}
			input.WriteString(msg.Content)
		case "assistant":
			// prior assistant turns are context we do not re-answer
		default:
			return "", fmt.Errorf("simllm: %s: unknown role %q", m.profile.Name, msg.Role)
		}
	}
	return m.Respond(input.String(), opt), nil
}

// Respond generates a reply to the input text, which may be a bare user
// prompt or a prompt with a complementary prompt appended.
func (m *Model) Respond(input string, opt Options) string {
	// The model answers the *final* question: with few-shot
	// demonstrations prepended, analysing the whole input would let a
	// demo's trap cue or constraint hijack the response. Directives are
	// still read from the full input — instructions anywhere steer.
	analysis := facet.AnalyzePrompt(focusTail(input, 80))
	directives := facet.DetectDirectives(input)
	// An augmentation that leaks an "answer" derails generation: the
	// model latches onto the supplied answer and parrots it instead of
	// doing its own work — the reason the Figure 5 critic treats direct
	// answers as a hard defect.
	if facet.DetectAnswerLeak(input) &&
		m.draw(input, "parrot", opt.Salt) < 0.5+0.3*(1-m.profile.Quality) {
		return "As already stated, the answer is as given above; nothing further to add."
	}
	plan := m.plan(input, analysis, directives, opt)
	return m.render(input, analysis, plan, opt)
}

// responsePlan is the internal decision of what the response will deliver.
type responsePlan struct {
	covered      []facet.Facet
	emphasized   facet.Set // directive-driven facets, delivered with extra weight
	trapHandled  bool
	conciseObeys bool // whether an active conciseness constraint is obeyed
	confused     bool // conflicting directives degraded the response
}

func (m *Model) plan(input string, analysis facet.Analysis, directives facet.Set, opt Options) responsePlan {
	var plan responsePlan
	noise := opt.Temperature
	if noise <= 0 {
		noise = 0.15
	}
	conflicts := facet.ConflictingDirectives(analysis, directives)
	plan.confused = len(conflicts) > 0 &&
		m.draw(input, "confusion", opt.Salt) < 0.4+0.4*(1-m.profile.Obedience)
	// Attention dilution: a battery of four or more directives on a
	// simple prompt scatters the model (the critic's "excessive
	// additions" defect is a real failure mode, not a style nit).
	if directives.Len() >= 4 && analysis.Complexity < 1.2 &&
		m.draw(input, "dilution", opt.Salt) < 0.5+0.3*(1-m.profile.Quality) {
		plan.confused = true
	}

	// Facet coverage: intrinsic attention from need x quality, plus the
	// obedience boost for explicitly demanded facets.
	type scored struct {
		f facet.Facet
		s float64
	}
	var candidates []scored
	for _, f := range facet.All() {
		need := analysis.Needs[f]
		drive := need * m.profile.Quality
		if directives.Has(f) {
			drive += 0.6 * m.profile.Obedience
		}
		drive += (m.draw(input, "facet/"+f.String(), opt.Salt) - 0.5) * noise
		if plan.confused {
			drive -= 0.25
		}
		if drive > 0.45 {
			candidates = append(candidates, scored{f, drive})
		}
	}
	// Strongest facets first; weak models attend to fewer facets.
	for i := 1; i < len(candidates); i++ {
		for j := i; j > 0 && candidates[j].s > candidates[j-1].s; j-- {
			candidates[j], candidates[j-1] = candidates[j-1], candidates[j]
		}
	}
	budget := 2 + int(m.profile.Quality*4)
	if opt.MaxSections > 0 && opt.MaxSections < budget {
		budget = opt.MaxSections
	}

	// An obeyed conciseness constraint caps the response at two sections;
	// a model confused by conflicting directives blows through it.
	concise := analysis.Constraints.Has(facet.Conciseness)
	plan.conciseObeys = concise && !plan.confused
	if plan.conciseObeys && budget > 2 {
		budget = 2
	}
	if len(candidates) > budget {
		candidates = candidates[:budget]
	}
	for _, c := range candidates {
		plan.covered = append(plan.covered, c.f)
		// A facet the input explicitly demanded gets emphatic treatment:
		// instructed models dwell on what they were told to dwell on.
		if directives.Has(c.f) && m.draw(input, "emph/"+c.f.String(), opt.Salt) < 0.55*m.profile.Obedience {
			plan.emphasized = plan.emphasized.With(c.f)
		}
	}

	if analysis.Trapped {
		if directives.Has(facet.TrapAware) {
			plan.trapHandled = m.draw(input, "trap-warned", opt.Salt) < 0.55+0.45*m.profile.Obedience
		} else {
			plan.trapHandled = m.draw(input, "trap", opt.Salt) < m.profile.TrapResistance
		}
	}
	return plan
}

// draw returns a deterministic pseudo-uniform value for this model,
// input, purpose and salt.
func (m *Model) draw(input, purpose, salt string) float64 {
	return textkit.Unit(purpose+"\x00"+salt+"\x00"+input, m.seed)
}

// render turns a plan into response text. Every delivered facet is
// expressed through its delivery lexicon so the judge can see it, and
// content words from the prompt are echoed so relevance is measurable.
func (m *Model) render(input string, analysis facet.Analysis, plan responsePlan, opt Options) string {
	topic := topicWords(input, 6)
	var b strings.Builder

	if plan.conciseObeys {
		b.WriteString("In short: ")
	} else {
		fmt.Fprintf(&b, "Here is a response regarding %s.\n", strings.Join(topic, " "))
	}

	if analysis.Trapped {
		if plan.trapHandled {
			lex := facet.DeliveryLexicon(facet.TrapAware)
			phrase := lex[textkit.Bucket(input+opt.Salt, m.seed, len(lex))]
			fmt.Fprintf(&b, "%s: %s. ", capitalize(phrase), analysis.Trap.RightClaim)
		} else {
			fmt.Fprintf(&b, "The answer: %s. ", analysis.Trap.WrongClaim)
		}
	}

	for i, f := range plan.covered {
		lex := facet.DeliveryLexicon(f)
		phrase := lex[textkit.Bucket(input+opt.Salt+f.String(), m.seed, len(lex))]
		echo := ""
		if len(topic) > 0 {
			echo = topic[i%len(topic)]
		}
		fmt.Fprintf(&b, "%s %s", capitalize(phrase), sectionBody(f, echo))
		if plan.emphasized.Has(f) && len(lex) > 1 {
			second := lex[(textkit.Bucket(input+opt.Salt+f.String(), m.seed, len(lex))+1)%len(lex)]
			fmt.Fprintf(&b, " %s, as requested, this is treated in depth.", capitalize(second))
		}
		if !plan.conciseObeys {
			// Verbosity padding scales with the profile, giving the
			// judge's length bias something real to be biased about.
			pad := int(m.profile.Verbosity * 2)
			for p := 0; p < pad; p++ {
				fmt.Fprintf(&b, " This consideration of %s merits attention.", echo)
			}
		}
		b.WriteString("\n")
	}

	if len(plan.covered) == 0 {
		fmt.Fprintf(&b, "Regarding %s, a brief take: it depends on the details.", strings.Join(topic, " "))
	}
	return strings.TrimSpace(b.String())
}

// sectionBody writes a facet-appropriate sentence mentioning the echoed
// topic word.
func sectionBody(f facet.Facet, echo string) string {
	if echo == "" {
		echo = "the question"
	}
	switch f {
	case facet.Reasoning:
		return fmt.Sprintf("we examine %s, and each inference about %s is made explicit.", echo, echo)
	case facet.Specificity:
		return fmt.Sprintf("the details of %s are pinned down with exact parameters.", echo)
	case facet.Structure:
		return fmt.Sprintf("the treatment of %s is organised into clear parts.", echo)
	case facet.Style:
		return fmt.Sprintf("the register suits %s throughout.", echo)
	case facet.Context:
		return fmt.Sprintf("the background of %s frames the answer.", echo)
	case facet.Completeness:
		return fmt.Sprintf("every relevant aspect of %s is covered, including edge conditions.", echo)
	case facet.Accuracy:
		return fmt.Sprintf("claims about %s are checked before being stated.", echo)
	case facet.Conciseness:
		return fmt.Sprintf("%s, distilled.", echo)
	case facet.Examples:
		return fmt.Sprintf("a concrete case involving %s makes this tangible.", echo)
	case facet.Safety:
		return fmt.Sprintf("limits around %s are flagged where they matter.", echo)
	case facet.Planning:
		return fmt.Sprintf("the approach to %s is laid out before executing it.", echo)
	default:
		return fmt.Sprintf("the matter of %s receives due care.", echo)
	}
}

// focusTail returns the segment a chat model actually answers: the last
// blank-line-separated block (few-shot demonstrations are conventionally
// separated by blank lines), bounded to the last n words. Inputs without
// blocks and shorter than n words are returned unchanged (preserving
// punctuation for downstream matching).
func focusTail(input string, n int) string {
	if i := strings.LastIndex(input, "\n\n"); i >= 0 {
		input = input[i+2:]
	}
	words := textkit.Words(input)
	if len(words) <= n {
		return input
	}
	return strings.Join(words[len(words)-n:], " ")
}

// topicWords extracts up to n distinctive content words from the prompt,
// reading only its tail: with few-shot demonstrations prepended, the
// user's actual question is the final segment, and that is what a chat
// model's answer is about.
func topicWords(input string, n int) []string {
	words := textkit.Words(focusTail(input, 50))
	seen := make(map[string]bool)
	var out []string
	for _, w := range words {
		if len(w) < 5 || stopwords[w] || seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
		if len(out) == n {
			break
		}
	}
	return out
}

var stopwords = map[string]bool{
	"about": true, "after": true, "again": true, "before": true, "being": true,
	"could": true, "every": true, "first": true, "other": true, "please": true,
	"should": true, "their": true, "there": true, "these": true, "thing": true,
	"think": true, "those": true, "which": true, "while": true, "would": true,
	"write": true, "explain": true, "describe": true,
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
