package simllm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/facet"
	"repro/internal/textkit"
)

func TestLookupProfile(t *testing.T) {
	p, err := LookupProfile(GPT4Turbo)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != GPT4Turbo {
		t.Fatalf("name = %s", p.Name)
	}
	if _, err := LookupProfile("gpt-9"); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestRosterContainsMainModels(t *testing.T) {
	roster := map[string]bool{}
	for _, n := range Roster() {
		roster[n] = true
	}
	for _, n := range MainModels() {
		if !roster[n] {
			t.Errorf("main model %s missing from roster", n)
		}
	}
	if len(MainModels()) != 6 {
		t.Errorf("table 1 has 6 main models, got %d", len(MainModels()))
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{Name: "", Quality: 0.5, Obedience: 0.5, TrapResistance: 0.5, Verbosity: 1},
		{Name: "x", Quality: 1.5, Obedience: 0.5, TrapResistance: 0.5, Verbosity: 1},
		{Name: "x", Quality: 0.5, Obedience: -0.1, TrapResistance: 0.5, Verbosity: 1},
		{Name: "x", Quality: 0.5, Obedience: 0.5, TrapResistance: 0.5, Verbosity: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d should be invalid", i)
		}
	}
	for _, n := range Roster() {
		p, _ := LookupProfile(n)
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile %s invalid: %v", n, err)
		}
	}
}

func TestRespondDeterministic(t *testing.T) {
	m := MustModel(GPT40613)
	prompt := "Explain how photosynthesis works."
	a := m.Respond(prompt, Options{Salt: "s1"})
	b := m.Respond(prompt, Options{Salt: "s1"})
	if a != b {
		t.Fatal("same input+salt must give same output")
	}
	c := m.Respond(prompt, Options{Salt: "s2"})
	if a == c {
		t.Fatal("different salt should usually change the output")
	}
}

func TestChatRoles(t *testing.T) {
	m := MustModel(GPT35Turbo)
	ctx := context.Background()
	if _, err := m.ChatContext(ctx, nil, Options{}); err == nil {
		t.Fatal("empty messages should error")
	}
	if _, err := m.ChatContext(ctx, []Message{{Role: "alien", Content: "hi"}}, Options{}); err == nil {
		t.Fatal("unknown role should error")
	}
	out, err := m.ChatContext(ctx, []Message{
		{Role: "system", Content: "Be helpful."},
		{Role: "user", Content: "Explain the history of the silk road."},
	}, Options{Salt: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("empty response")
	}
}

// TestChatContextCancelled: a context that has already ended is
// answered with its own error and no reply.
func TestChatContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MustModel(GPT4Turbo).ChatContext(ctx, []Message{{Role: "user", Content: "Explain how tides form."}}, Options{})
	if !errors.Is(err, context.Canceled) || out != "" {
		t.Fatalf("ChatContext on a cancelled context = (%q, %v), want context.Canceled", out, err)
	}
}

// TestChatContextMatchesGolden: on a live context ChatContext returns
// the replies recorded in testdata/chat_replies.golden, which were taken
// from the model's context-less Chat before it was folded into
// ChatContext — single turn, system + user, multi-turn with an
// assistant turn, temperature and a section cap.
func TestChatContextMatchesGolden(t *testing.T) {
	cases := []struct {
		model    string
		messages []Message
		opt      Options
	}{
		{GPT40613, []Message{{Role: "user", Content: "Explain how tides form."}}, Options{Salt: "s1"}},
		{GPT35Turbo, []Message{
			{Role: "system", Content: "Be helpful."},
			{Role: "user", Content: "Explain the history of the silk road."},
		}, Options{Salt: "t"}},
		{Qwen272B, []Message{
			{Role: "user", Content: "What is a prime number?"},
			{Role: "assistant", Content: "A number with exactly two divisors."},
			{Role: "user", Content: "Give me advice on keeping houseplants alive."},
		}, Options{Temperature: 0.7, Salt: "multi"}},
		{GPT4Turbo, []Message{{Role: "user", Content: "Write a short poem about autumn. Please include concrete examples and explain step by step."}}, Options{Salt: "e", MaxSections: 2}},
	}
	raw, err := os.ReadFile("testdata/chat_replies.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d replies for %d cases", len(want), len(cases))
	}
	for i, c := range cases {
		got, err := MustModel(c.model).ChatContext(context.Background(), c.messages, c.opt)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("case %d (%s):\n got %q\nwant %q", i, c.model, got, want[i])
		}
	}
}

// TestDirectiveSteering is the central mechanism check: appending a
// complementary prompt demanding a facet must raise the rate at which
// that facet is delivered in the response text.
func TestDirectiveSteering(t *testing.T) {
	m := MustModel(GPT40613)
	prompt := "Tell me about keeping houseplants alive."
	aug := facet.RenderDirectives([]facet.Facet{facet.Examples}, "steer")

	delivered := func(input string) int {
		count := 0
		for i := 0; i < 40; i++ {
			resp := m.Respond(input, Options{Salt: fmt.Sprintf("s%d", i)})
			if facet.DetectDelivered(resp)[facet.Examples] > 0 {
				count++
			}
		}
		return count
	}
	bare := delivered(prompt)
	steered := delivered(prompt + "\n" + aug)
	if steered <= bare {
		t.Fatalf("steering failed: examples delivered bare=%d/40 steered=%d/40", bare, steered)
	}
	if steered < 30 {
		t.Fatalf("obedient model should usually deliver the demanded facet: %d/40", steered)
	}
}

func TestTrapWarningHelps(t *testing.T) {
	m := MustModel(GPT35Turbo) // low trap resistance
	prompt := "If there are 10 birds on a tree and one is shot dead, how many birds are on the ground?"
	tr, ok := facet.FindTrap(prompt)
	if !ok {
		t.Fatal("setup: trap not found")
	}
	warn := facet.RenderDirectives([]facet.Facet{facet.TrapAware}, "warn")

	rightRate := func(input string) int {
		right := 0
		for i := 0; i < 40; i++ {
			resp := m.Respond(input, Options{Salt: fmt.Sprintf("t%d", i)})
			if tr.ClaimsRight(resp) {
				right++
			}
		}
		return right
	}
	bare := rightRate(prompt)
	warned := rightRate(prompt + "\n" + warn)
	if bare > 15 {
		t.Fatalf("weak model should usually fall into the trap unaided: right %d/40", bare)
	}
	if warned < 30 {
		t.Fatalf("warned model should usually avoid the trap: right %d/40", warned)
	}
}

func TestTrapResponseStatesOneClaim(t *testing.T) {
	m := MustModel(GPT4Turbo)
	prompt := "A quick trick puzzle for you: heavier a kilogram of steel or a kilogram of feathers. What do you say?"
	tr, ok := facet.FindTrap(prompt)
	if !ok {
		t.Fatal("setup: trap not found")
	}
	for i := 0; i < 10; i++ {
		resp := m.Respond(prompt, Options{Salt: fmt.Sprintf("c%d", i)})
		if tr.ClaimsRight(resp) == tr.ClaimsWrong(resp) {
			t.Fatalf("response must state exactly one claim: %q", resp)
		}
	}
}

func TestConcisenessConstraintShortensResponse(t *testing.T) {
	m := MustModel(GPT4Turbo)
	long := m.Respond("Explain the science of fermentation.", Options{Salt: "l"})
	short := m.Respond("Briefly explain the science of fermentation.", Options{Salt: "l"})
	if textkit.WordCount(short) >= textkit.WordCount(long) {
		t.Fatalf("concise response (%d words) not shorter than default (%d words)",
			textkit.WordCount(short), textkit.WordCount(long))
	}
}

func TestConflictingAugCanViolateConstraint(t *testing.T) {
	m := MustModel(GPT35Turbo) // low obedience: often confused by conflicts
	prompt := "Briefly summarize this long article about coral reefs."
	bad := facet.RenderConflicting(facet.Conciseness, "x")
	violations := 0
	for i := 0; i < 40; i++ {
		clean := m.Respond(prompt, Options{Salt: fmt.Sprintf("v%d", i)})
		conflicted := m.Respond(prompt+"\n"+bad, Options{Salt: fmt.Sprintf("v%d", i)})
		if textkit.WordCount(conflicted) > 2*textkit.WordCount(clean) {
			violations++
		}
	}
	if violations < 5 {
		t.Fatalf("conflicting aug should sometimes blow the length budget: %d/40", violations)
	}
}

func TestStrongerModelCoversMoreNeeds(t *testing.T) {
	strong := MustModel(GPT4Turbo)
	weak := MustModel(LLaMA27B)
	prompt := "Describe the history and mechanism of how blood pressure regulation works."
	needs := facet.AnalyzePrompt(prompt).Needs

	coverage := func(m *Model) float64 {
		var total float64
		for i := 0; i < 30; i++ {
			resp := m.Respond(prompt, Options{Salt: fmt.Sprintf("n%d", i)})
			delivered := facet.DetectDelivered(resp)
			for f, w := range needs {
				if w > 0.4 && delivered[f] > 0 {
					total++
				}
			}
		}
		return total
	}
	cs, cw := coverage(strong), coverage(weak)
	if cs <= cw {
		t.Fatalf("strong model coverage %v should exceed weak %v", cs, cw)
	}
}

func TestScorePromptQualitySeparatesJunk(t *testing.T) {
	m := MustModel(Baichuan13B)
	junk := []string{"asdf asdf asdf", "??", "x", "test test 123 test"}
	real := []string{
		"Write a python function that implements a rate limiter.",
		"Explain how photosynthesis works and the mechanism behind it.",
		"Translate 'good morning, how are you' into french.",
	}
	for _, j := range junk {
		for _, r := range real {
			js, rs := m.ScorePromptQuality(j), m.ScorePromptQuality(r)
			if js >= rs {
				t.Errorf("junk %q scored %.2f >= real %q %.2f", j, js, r, rs)
			}
		}
	}
}

func TestScorePromptQualityBounds(t *testing.T) {
	m := MustModel(Baichuan13B)
	for _, p := range []string{"", "a", strings.Repeat("long prompt with many words ", 40)} {
		s := m.ScorePromptQuality(p)
		if s < 0 || s > 10 {
			t.Errorf("score out of range for %q: %v", p, s)
		}
	}
}

func TestNewRejectsInvalidProfile(t *testing.T) {
	if _, err := New(Profile{Name: "bad", Quality: 2, Verbosity: 1}); err == nil {
		t.Fatal("invalid profile should fail")
	}
}

// TestTemperatureControlsDiversity: higher sampling temperature spreads
// the facet-coverage distribution across resamples.
func TestTemperatureControlsDiversity(t *testing.T) {
	m := MustModel(GPT40613)
	prompt := "Describe the history and mechanism of how blood pressure regulation works."
	distinct := func(temp float64) int {
		seen := map[string]bool{}
		for i := 0; i < 40; i++ {
			resp := m.Respond(prompt, Options{Temperature: temp, Salt: fmt.Sprintf("t%d", i)})
			delivered := facet.DetectDelivered(resp)
			key := ""
			for f := 0; f < facet.Count; f++ {
				if delivered[f] > 0 {
					key += facet.Facet(f).String() + "|"
				}
			}
			seen[key] = true
		}
		return len(seen)
	}
	cold, hot := distinct(0.05), distinct(1.2)
	if hot <= cold {
		t.Fatalf("temperature has no effect on diversity: cold=%d hot=%d", cold, hot)
	}
}

// TestMaxSectionsCapsResponse: the decoding cap bounds response size.
func TestMaxSectionsCapsResponse(t *testing.T) {
	m := MustModel(GPT4Turbo)
	prompt := "Describe the history and mechanism of how blood pressure regulation works."
	free := m.Respond(prompt, Options{Salt: "cap"})
	capped := m.Respond(prompt, Options{Salt: "cap", MaxSections: 1})
	if textkit.WordCount(capped) >= textkit.WordCount(free) {
		t.Fatalf("MaxSections did not shorten: %d vs %d words",
			textkit.WordCount(capped), textkit.WordCount(free))
	}
}
