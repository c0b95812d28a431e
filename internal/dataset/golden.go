package dataset

import (
	"fmt"

	"repro/internal/facet"
)

// goldenPrompts holds 5 hand-written example prompts per category. Together
// with complementary prompts derived from each category's need profile,
// they form D_golden — the paper's curated few-shot seed set ("4 to 5 pairs
// of few-shot examples for each category from BaiChuan").
var goldenPrompts = map[facet.Category][]string{
	facet.Coding:        {"Write a python function to reverse a linked list.", "My golang code deadlocks, help me debug it.", "Implement a bloom filter in rust.", "Write unit tests for this parser.", "How do I program a retry wrapper using the standard api?"},
	facet.QA:            {"What is the boiling point of water at altitude?", "Why does metal feel colder than wood?", "How does a microwave heat food?", "What causes thunder?", "When was the telephone invented?"},
	facet.Writing:       {"Write a farewell email to my team.", "Help me draft a cover letter.", "Compose a toast for my sister's wedding.", "Write a product launch announcement.", "Draft a blog article on remote work."},
	facet.Math:          {"Calculate the integral of x squared from 0 to 3.", "Solve x^2 - 5x + 6 = 0.", "What is a 15 percent tip on 64 dollars?", "Find the probability of two heads in three flips.", "Sum the first 100 odd numbers."},
	facet.Reason:        {"Here is a logic puzzle: three boxes with mislabeled fruit. Deduce the answer.", "Solve this riddle about two doors with one lying guard.", "A puzzle: four people crossing a bridge with one torch. What follows?", "If you face the island where everyone lies on tuesdays, then what do you do? Use logic.", "Solve this riddle about crossing a river with a wolf a goat and a cabbage."},
	facet.Translation:   {"Translate 'good morning, how are you' into french.", "How do you say 'where is the train station' in german?", "Provide a spanish translation of 'thank you for your hospitality'.", "Translate 'the meeting is postponed to friday' into chinese.", "How do you say 'my luggage is lost' in spanish?"},
	facet.Summarization: {"Summarize this long article about coral reefs into key points.", "Give me a tldr summary of the meeting transcript from monday.", "Condense my 3000-word travel journal into a short summary.", "Shorten this research paper on sleep cycles to its key ideas.", "Summarize a 20-page quarterly earnings report into key points."},
	facet.Roleplay:      {"Pretend you are a medieval blacksmith and greet me in character.", "Roleplay as a 1920s detective; imagine we just met.", "Act as an enthusiastic museum guide. You are showing me around.", "You are a stern but fair chess coach — stay in persona while we chat.", "Pretend you are a friendly alien ambassador and greet me in character."},
	facet.Brainstorm:    {"Brainstorm a list of ideas for names for a coffee shop near a library.", "Suggest creative options for birthday gifts for a chemist.", "Give me ideas: icebreakers for a remote team. List many.", "I need a creative list of side project ideas using open data.", "Brainstorm a list of ideas for ways to reuse glass jars."},
	facet.Knowledge:     {"Explain how photosynthesis works.", "Describe the history of the silk road and the mechanism behind it.", "Explain the science of fermentation.", "Can you explain how blood pressure regulation works and how it works?", "Describe the physiology of high-altitude adaptation."},
	facet.Advice:        {"What is the best way of preparing for a system design interview? Any tips?", "Give me advice on starting to run at 40.", "Help me improve at negotiating a salary offer with practical tips.", "Should I change how I approach reducing screen time before bed? Recommend steps.", "Give me advice on keeping houseplants alive."},
	facet.Analytical:    {"Analyze the trade offs of remote work versus office work.", "Compare sql versus nosql for a startup and evaluate the pros and cons.", "Assess monolith versus microservices; which wins and under what judgment criteria?", "Evaluate renting versus buying a home for a small team.", "Analyze the trade offs of electric cars versus hybrids."},
	facet.Extraction:    {"Extract the dates and amounts from this invoice.", "Parse the fields of this log line into json and identify each item.", "Find and extract email addresses from this text dump as a table.", "Identify all person entities in this paragraph and return json.", "Extract action items from these notes."},
	facet.Chitchat:      {"Hello! How is your morning going?", "Hi there, anything fun to chat about?", "Good morning! Any plans for the weekend?", "Hey, how are you feeling today?", "Thanks for the help earlier, you are great to chat with."},
}

// Golden returns D_golden: for each category, 5 (prompt, complement)
// pairs whose complements demand the category's top needs. The pairs are
// deterministic and pass the critic by construction.
func Golden() map[facet.Category][]Pair {
	out := make(map[facet.Category][]Pair, facet.CategoryCount)
	for _, c := range facet.Categories() {
		prompts := goldenPrompts[c]
		top := cleanTop(facet.NeedPrior(c), 2)
		pairs := make([]Pair, 0, len(prompts))
		for i, prompt := range prompts {
			variant := fmt.Sprintf("golden/%s/%d", c, i)
			pairs = append(pairs, Pair{
				Prompt:     prompt,
				Complement: facet.RenderDirectives(top, variant),
				Category:   c.String(),
				Source:     "golden",
			})
		}
		out[c] = pairs
	}
	return out
}

// cleanTop picks up to k of the highest-weighted facets, skipping any
// facet that conflicts with an already chosen one — golden complements
// must never demand mutually contradictory treatment (conciseness plus
// exhaustive coverage, say), or they would teach the defect the critic
// exists to remove.
func cleanTop(w facet.Weights, k int) []facet.Facet {
	var out []facet.Facet
	for _, f := range w.Top(facet.Count) {
		ok := true
		for _, g := range out {
			if facet.ConflictsWith(f, g) || facet.ConflictsWith(g, f) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, f)
			if len(out) == k {
				break
			}
		}
	}
	return out
}
