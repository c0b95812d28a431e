package facet

import "fmt"

// Category is one of the 14 prompt categories of Figure 6. The paper's
// curation pipeline classifies prompts into these so the generation stage
// can pick category-appropriate golden few-shot examples.
type Category int

// The category taxonomy, ordered roughly by prevalence in the paper's
// dataset (Coding and Q&A dominate).
const (
	Coding Category = iota
	QA
	Writing
	Math
	Reason
	Translation
	Summarization
	Roleplay
	Brainstorm
	Knowledge
	Advice
	Analytical
	Extraction
	Chitchat
	numCategories
)

// CategoryCount is the number of categories.
const CategoryCount = int(numCategories)

var categoryNames = [...]string{
	Coding:        "coding",
	QA:            "qa",
	Writing:       "writing",
	Math:          "math",
	Reason:        "reasoning",
	Translation:   "translation",
	Summarization: "summarization",
	Roleplay:      "roleplay",
	Brainstorm:    "brainstorming",
	Knowledge:     "knowledge",
	Advice:        "advice",
	Analytical:    "analysis",
	Extraction:    "extraction",
	Chitchat:      "chitchat",
}

func (c Category) String() string {
	if c < 0 || int(c) >= CategoryCount {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Valid reports whether c is a member of the taxonomy.
func (c Category) Valid() bool { return c >= 0 && int(c) < CategoryCount }

// ParseCategory returns the category with the given name.
func ParseCategory(name string) (Category, error) {
	for i, n := range categoryNames {
		if n == name {
			return Category(i), nil
		}
	}
	return 0, fmt.Errorf("facet: unknown category %q", name)
}

// Categories returns every category in taxonomy order.
func Categories() []Category {
	out := make([]Category, CategoryCount)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// needPrior gives each category's characteristic distribution over facets:
// what a good answer in that category typically must deliver. Individual
// prompts perturb this prior (see the corpus generator).
var needPrior = map[Category]Weights{
	Coding:        weightsOf(fw{Specificity, 1}, fw{Accuracy, 0.9}, fw{Examples, 0.7}, fw{Structure, 0.6}, fw{Reasoning, 0.4}),
	QA:            weightsOf(fw{Accuracy, 1}, fw{Completeness, 0.8}, fw{Context, 0.6}, fw{Specificity, 0.5}),
	Writing:       weightsOf(fw{Style, 1}, fw{Structure, 0.8}, fw{Context, 0.5}, fw{Specificity, 0.4}),
	Math:          weightsOf(fw{Reasoning, 1}, fw{Accuracy, 0.9}, fw{Planning, 0.6}, fw{Specificity, 0.4}),
	Reason:        weightsOf(fw{Reasoning, 1}, fw{TrapAware, 0.8}, fw{Accuracy, 0.7}, fw{Planning, 0.4}),
	Translation:   weightsOf(fw{Accuracy, 1}, fw{Style, 0.8}, fw{Context, 0.4}, fw{Conciseness, 0.3}),
	Summarization: weightsOf(fw{Conciseness, 1}, fw{Completeness, 0.7}, fw{Structure, 0.6}, fw{Accuracy, 0.5}),
	Roleplay:      weightsOf(fw{Style, 1}, fw{Context, 0.8}, fw{Specificity, 0.4}, fw{Examples, 0.3}),
	Brainstorm:    weightsOf(fw{Completeness, 1}, fw{Examples, 0.8}, fw{Structure, 0.6}, fw{Specificity, 0.5}),
	Knowledge:     weightsOf(fw{Accuracy, 1}, fw{Completeness, 0.9}, fw{Context, 0.7}, fw{Structure, 0.5}, fw{Examples, 0.3}),
	Advice:        weightsOf(fw{Specificity, 1}, fw{Safety, 0.8}, fw{Completeness, 0.6}, fw{Structure, 0.5}, fw{Context, 0.4}),
	Analytical:    weightsOf(fw{Reasoning, 1}, fw{Completeness, 0.8}, fw{Structure, 0.7}, fw{Context, 0.6}, fw{Accuracy, 0.5}),
	Extraction:    weightsOf(fw{Accuracy, 1}, fw{Conciseness, 0.8}, fw{Structure, 0.7}, fw{Specificity, 0.5}),
	Chitchat:      weightsOf(fw{Style, 1}, fw{Conciseness, 0.6}, fw{Context, 0.3}),
}

type fw struct {
	f Facet
	w float64
}

func weightsOf(pairs ...fw) Weights {
	var w Weights
	for _, p := range pairs {
		w[p.f] = p.w
	}
	return w
}

// NeedPrior returns the characteristic need profile of category c.
func NeedPrior(c Category) Weights {
	return needPrior[c]
}

// categoryCues are the words whose presence in a prompt signals its
// category. The corpus templates use these words, the heuristic analyzer
// and the classifier features recover them.
var categoryCues = map[Category][]string{
	Coding:        {"code", "function", "bug", "python", "golang", "implement", "compile", "api", "script", "algorithm", "debug", "program"},
	QA:            {"what", "why", "how", "does", "question", "answer", "when"},
	Writing:       {"write", "essay", "poem", "article", "story", "email", "letter", "blog", "draft"},
	Math:          {"calculate", "solve", "equation", "integral", "probability", "sum", "percent", "math"},
	Reason:        {"puzzle", "riddle", "logic", "deduce", "if", "then", "birds", "trick"},
	Translation:   {"translate", "translation", "french", "spanish", "chinese", "german", "language"},
	Summarization: {"summarize", "summary", "tldr", "condense", "shorten", "key", "points"},
	Roleplay:      {"pretend", "act", "roleplay", "character", "persona", "imagine", "you", "are"},
	Brainstorm:    {"ideas", "brainstorm", "suggest", "list", "names", "options", "creative"},
	Knowledge:     {"explain", "history", "science", "describe", "mechanism", "works", "physiology", "blood", "pressure"},
	Advice:        {"should", "advice", "recommend", "help", "improve", "tips", "best", "way"},
	Analytical:    {"analyze", "compare", "evaluate", "pros", "cons", "assess", "judgment", "trade"},
	Extraction:    {"extract", "parse", "find", "identify", "json", "fields", "entities", "table"},
	Chitchat:      {"hello", "hi", "morning", "thanks", "chat", "feeling", "weekend"},
}
