package facet

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestFacetNamesRoundTrip(t *testing.T) {
	for _, f := range All() {
		got, err := ParseFacet(f.String())
		if err != nil {
			t.Fatalf("ParseFacet(%q): %v", f.String(), err)
		}
		if got != f {
			t.Errorf("round trip %v -> %v", f, got)
		}
	}
	if _, err := ParseFacet("nonsense"); err == nil {
		t.Error("unknown facet should fail")
	}
	if Facet(99).String() != "Facet(99)" {
		t.Error("out-of-range String wrong")
	}
	if Facet(99).Valid() {
		t.Error("out-of-range facet should be invalid")
	}
}

func TestCategoryNamesRoundTrip(t *testing.T) {
	if len(Categories()) != 14 {
		t.Fatalf("paper has 14 categories, got %d", len(Categories()))
	}
	for _, c := range Categories() {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("round trip %v -> %v, %v", c, got, err)
		}
	}
	if _, err := ParseCategory("nope"); err == nil {
		t.Error("unknown category should fail")
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet(Reasoning, Conciseness)
	if !s.Has(Reasoning) || !s.Has(Conciseness) || s.Has(Style) {
		t.Fatalf("set membership wrong: %v", s)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	s = s.Without(Reasoning)
	if s.Has(Reasoning) || s.Len() != 1 {
		t.Fatalf("Without failed: %v", s)
	}
	if NewSet().String() != "none" {
		t.Error("empty set string wrong")
	}
	if got := NewSet(Reasoning, Accuracy).String(); got != "reasoning+accuracy" {
		t.Errorf("set string = %q", got)
	}
}

func TestSetPropertyWithHasWithout(t *testing.T) {
	f := func(raw uint8, n uint8) bool {
		fa := Facet(int(n) % Count)
		s := Set(raw)
		return s.With(fa).Has(fa) && !s.Without(fa).Has(fa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConflicts(t *testing.T) {
	if !ConflictsWith(Completeness, Conciseness) {
		t.Error("completeness should conflict with conciseness")
	}
	if !ConflictsWith(Examples, Conciseness) {
		t.Error("examples should conflict with conciseness")
	}
	if ConflictsWith(Reasoning, Style) {
		t.Error("reasoning/style should not conflict")
	}
}

func TestWeightsTop(t *testing.T) {
	var w Weights
	w[Reasoning] = 0.9
	w[Accuracy] = 1.0
	w[Style] = 0.1
	top := w.Top(2)
	if len(top) != 2 || top[0] != Accuracy || top[1] != Reasoning {
		t.Fatalf("Top(2) = %v", top)
	}
	if got := w.Top(10); len(got) != 3 {
		t.Fatalf("Top(10) should clamp to non-zero entries, got %v", got)
	}
	if w.Sum() != 2.0 {
		t.Fatalf("Sum = %v", w.Sum())
	}
}

func TestNeedPriorsCoverEveryCategory(t *testing.T) {
	for _, c := range Categories() {
		if NeedPrior(c).Sum() == 0 {
			t.Errorf("category %v has empty need prior", c)
		}
		if len(categoryCues[c]) == 0 {
			t.Errorf("category %v has no cue lexicon", c)
		}
	}
}

func TestLexiconsNonEmpty(t *testing.T) {
	for _, f := range All() {
		if len(directiveLex[f]) == 0 {
			t.Errorf("facet %v missing directive lexicon", f)
		}
		if len(needCueLex[f]) == 0 {
			t.Errorf("facet %v missing need-cue lexicon", f)
		}
		if len(DeliveryLexicon(f)) == 0 {
			t.Errorf("facet %v missing delivery lexicon", f)
		}
	}
}

func TestAnalyzeDetectsCodingPrompt(t *testing.T) {
	a := AnalyzePrompt("Write a python function to parse json and fix the bug in my code")
	if a.Category != Coding {
		t.Fatalf("category = %v, want coding", a.Category)
	}
	if a.Needs[Specificity] == 0 {
		t.Error("coding prompts should need specificity")
	}
}

func TestAnalyzeDetectsConstraints(t *testing.T) {
	a := AnalyzePrompt("Briefly explain how photosynthesis works")
	if !a.Constraints.Has(Conciseness) {
		t.Fatalf("briefly should constrain conciseness: %v", a.Constraints)
	}
}

func TestAnalyzeDetectsTrap(t *testing.T) {
	a := AnalyzePrompt("If there are 10 birds on a tree and one is shot dead, how many birds are on the ground?")
	if !a.Trapped {
		t.Fatal("bird trap not detected")
	}
	if a.Trap.Name != "shot-birds" {
		t.Fatalf("trap = %v", a.Trap.Name)
	}
	if a.Needs[TrapAware] < 1 {
		t.Error("trap should raise trap-aware need")
	}
}

func TestAnalyzeComplexityBounded(t *testing.T) {
	f := func(s string) bool {
		a := AnalyzePrompt(s)
		return a.Complexity >= 0 && a.Complexity <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDetectDirectivesRoundTrip(t *testing.T) {
	// Every facet rendered as a directive must be recoverable.
	for _, f := range All() {
		aug := RenderDirectives([]Facet{f}, "variant-a")
		got := DetectDirectives(aug)
		if !got.Has(f) {
			t.Errorf("facet %v lost in render/detect round trip: %q -> %v", f, aug, got)
		}
	}
}

func TestRenderDirectivesMultipleAndEmpty(t *testing.T) {
	if RenderDirectives(nil, "x") != "" {
		t.Error("empty facet list should render empty string")
	}
	aug := RenderDirectives([]Facet{Reasoning, Structure, Accuracy}, "v1")
	got := DetectDirectives(aug)
	for _, f := range []Facet{Reasoning, Structure, Accuracy} {
		if !got.Has(f) {
			t.Errorf("multi-facet render lost %v: %q", f, aug)
		}
	}
}

func TestRenderVariantsDiffer(t *testing.T) {
	a := RenderDirectives([]Facet{Reasoning}, "v1")
	diverse := false
	for i := 0; i < 10; i++ {
		if RenderDirectives([]Facet{Reasoning}, string(rune('a'+i))) != a {
			diverse = true
			break
		}
	}
	if !diverse {
		t.Error("variants never change the rendered phrase")
	}
}

func TestAnswerLeakDetection(t *testing.T) {
	if !DetectAnswerLeak(RenderAnswerLeak("v")) {
		t.Error("rendered answer leak not detected")
	}
	if DetectAnswerLeak(RenderDirectives([]Facet{Reasoning}, "v")) {
		t.Error("clean directive flagged as leak")
	}
}

func TestRenderConflictingIsDetectedAsConflict(t *testing.T) {
	a := AnalyzePrompt("Briefly summarize the key points of this article")
	if !a.Constraints.Has(Conciseness) {
		t.Fatal("setup: conciseness constraint missing")
	}
	bad := RenderConflicting(Conciseness, "v9")
	dirs := DetectDirectives(bad)
	if len(ConflictingDirectives(a, dirs)) == 0 {
		t.Fatalf("rendered conflict %q not detected against constraints %v", bad, a.Constraints)
	}
}

func TestRenderConflictingFallback(t *testing.T) {
	// Style has no conflicting partner: expect the over-reach fallback,
	// which must still parse as directives.
	bad := RenderConflicting(Style, "v")
	if DetectDirectives(bad).Len() < 2 {
		t.Fatalf("fallback over-reach should demand several facets: %q", bad)
	}
}

func TestTrapBank(t *testing.T) {
	if len(Traps()) < 5 {
		t.Fatal("trap bank too small")
	}
	tr, ok := TrapByName("shot-birds")
	if !ok {
		t.Fatal("shot-birds missing")
	}
	if !tr.ClaimsWrong("I think Nine birds remain on the tree.") {
		t.Error("wrong claim not matched")
	}
	if !tr.ClaimsRight("So only the one shot bird is on the ground, since the rest fly away.") {
		t.Error("right claim not matched")
	}
	if _, ok := TrapByName("missing"); ok {
		t.Error("missing trap should not be found")
	}
	if _, ok := FindTrap("completely unrelated text"); ok {
		t.Error("no trap should be found")
	}
}

func TestDetectDeliveredCapsAtThree(t *testing.T) {
	text := "for example x. for instance y. e.g. z. as an illustration w. sample: v."
	w := DetectDelivered(text)
	if w[Examples] != 3 {
		t.Fatalf("examples delivery = %v, want capped at 3", w[Examples])
	}
}

// TestPhraseLexiconsAreFolded: countPhraseHits folds the text and not
// the phrases, so every phrase it is given must already be lower-case,
// and none may be empty (an empty phrase would hit every text).
func TestPhraseLexiconsAreFolded(t *testing.T) {
	banks := [][]string{answerLeakCues}
	for _, f := range All() {
		banks = append(banks, directiveLex[f], deliveryLex[f])
	}
	for _, bank := range banks {
		for _, p := range bank {
			if p == "" || p != strings.ToLower(p) {
				t.Errorf("phrase %q is empty or not lower-case", p)
			}
		}
	}
	if !DetectDirectives("THINK STEP BY STEP").Has(Reasoning) || !DetectAnswerLeak("The Answer Is 4") {
		t.Error("detection must stay case-insensitive on the text side")
	}
}

// ParseFacet returns the facet with the given name.
func ParseFacet(name string) (Facet, error) {
	for i, n := range facetNames {
		if n == name {
			return Facet(i), nil
		}
	}
	return 0, fmt.Errorf("facet: unknown facet %q", name)
}

// TrapByName looks a trap up by name.
func TrapByName(name string) (Trap, bool) {
	for _, tr := range trapBank {
		if tr.Name == name {
			return tr, true
		}
	}
	return Trap{}, false
}
