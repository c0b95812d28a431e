package facet

// The three lexicon families below ground each facet in actual words:
//
//   - directiveLex: phrases a *complementary prompt* uses to demand the
//     facet ("think step by step", "keep it brief").
//   - needCueLex: phrases a *user prompt* uses that signal the facet is
//     needed or constrained ("briefly", "in detail", "exact").
//   - deliveryLex: phrases a *response* uses when it actually delivers the
//     facet ("step 1", "for example", "in summary").
//
// The corpus generator, simulated LLM, PAS model, critic, and judge all
// draw from these same banks, so the only way information flows between
// them is through words — exactly like the real system.

var directiveLex = map[Facet][]string{
	Reasoning:    {"step by step", "show your reasoning", "reason through", "derive", "justify each step", "walk through the logic"},
	TrapAware:    {"watch for a trick", "logic trap", "re-read the premise", "question the assumption", "careful with the wording", "avoid the trap"},
	Specificity:  {"be specific", "concrete details", "exact values", "name concrete", "actionable", "precise"},
	Structure:    {"well-organized", "use sections", "use headings", "bullet points", "organized", "clear structure"},
	Style:        {"match the tone", "formal tone", "consistent style", "appropriate register", "stylistic constraints", "keep the voice"},
	Context:      {"provide background", "give context", "from a physiological and medical perspective", "relevant perspective", "frame the answer", "background information"},
	Completeness: {"comprehensive", "cover all aspects", "explain the mechanisms", "detailed analysis", "influencing factors", "all relevant"},
	Accuracy:     {"be accurate", "verify facts", "double-check", "factually correct", "cite evidence", "exclude ineffective"},
	Conciseness:  {"keep it brief", "be concise", "within 30 words", "short answer", "no filler", "to the point"},
	Examples:     {"include examples", "illustrate with", "worked example", "sample input", "for instance", "show a demo"},
	Safety:       {"add caveats", "mention risks", "consult a professional", "note limitations", "disclaimer", "when to seek help"},
	Planning:     {"devise a plan", "outline first", "plan before", "sketch the approach", "break into subtasks", "plan then solve"},
}

var needCueLex = map[Facet][]string{
	Reasoning:    {"prove", "why", "derive", "deduce", "reason", "logic", "step"},
	TrapAware:    {"riddle", "trick", "puzzle"},
	Specificity:  {"exact", "specific", "precisely", "concrete", "which", "quickly"},
	Structure:    {"list", "table", "outline", "organized", "sections", "format"},
	Style:        {"tone", "formal", "casual", "style", "poem", "persona", "voice"},
	Context:      {"background", "context", "history", "perspective", "overview"},
	Completeness: {"detailed", "comprehensive", "thorough", "all", "everything", "in depth", "mechanisms"},
	Accuracy:     {"correct", "accurate", "true", "fact", "really", "actually"},
	Conciseness:  {"briefly", "concise", "short", "quick", "tldr", "one sentence", "summary"},
	Examples:     {"example", "examples", "sample", "instance", "demo"},
	Safety:       {"safe", "risk", "health", "medical", "legal", "danger"},
	Planning:     {"plan", "strategy", "approach", "roadmap", "steps"},
}

var deliveryLex = map[Facet][]string{
	Reasoning:    {"step 1", "therefore", "it follows that", "because", "which implies", "let us reason"},
	TrapAware:    {"note the wording", "the premise hides", "re-reading the question", "this is a trick", "the trap here"},
	Specificity:  {"specifically", "in particular", "the exact", "concretely", "namely"},
	Structure:    {"first,", "second,", "finally,", "in summary", "## ", "- "},
	Style:        {"in keeping with the requested tone", "as the style requires", "maintaining the register", "in the requested voice"},
	Context:      {"by way of background", "historically", "for context", "from a broader perspective", "physiological"},
	Completeness: {"covering all aspects", "another important factor", "additionally", "furthermore", "a further mechanism", "influencing factors include"},
	Accuracy:     {"verified", "to be precise", "it is established that", "the correct value", "excluding ineffective"},
	Conciseness:  {"in short", "briefly", "in one line", "tl;dr"},
	Examples:     {"for example", "consider the case", "e.g.", "as an illustration", "sample:"},
	Safety:       {"please note the risks", "consult a professional", "this is not a substitute", "use caution", "important caveat"},
	Planning:     {"the plan is", "we will proceed in stages", "outline of the approach", "phase one", "subtasks:"},
}

// DeliveryLexicon returns the response phrases that deliver facet f.
func DeliveryLexicon(f Facet) []string { return deliveryLex[f] }

// answerLeakCues are phrases indicating that a "complementary prompt"
// actually answered the question instead of supplementing it — defect
// class 3 in the paper's critic prompt (Figure 5).
var answerLeakCues = []string{
	"the answer is", "the result is", "equals", "here is the solution",
	"the correct answer", "in conclusion, it is",
}
