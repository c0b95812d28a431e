// Package facet defines the shared semantic vocabulary of the PAS
// reproduction: the taxonomy of answer-quality facets, the 14 prompt
// categories of Figure 6, the lexicons that ground those concepts in
// text, and the logic-trap knowledge bank used by case study 1.
//
// Everything downstream — the synthetic corpus generator, the simulated
// LLMs, the pair-quality critic, and the LLM-as-judge — communicates
// through plain text and recovers meaning from that text with the
// analyzers in this package. That keeps the whole pipeline text-grounded:
// a complementary prompt helps a response only because the response
// generator actually reads the directives out of its words, and a judge
// prefers that response only because it can see the needs covered in its
// words.
package facet

import "fmt"

// Facet is one dimension along which a response can serve (or fail) a
// prompt: reasoning depth, structure, conciseness, and so on. Complementary
// prompts work by directing the downstream model's attention to the facets
// the user's prompt needs.
type Facet int

// The facet taxonomy. The ordering is stable and part of the package API:
// persisted policies index facets by these values.
const (
	Reasoning    Facet = iota // step-by-step logical derivation
	TrapAware                 // vigilance against logic traps and trick premises
	Specificity               // concrete, actionable detail
	Structure                 // organised presentation: sections, lists
	Style                     // tone and register constraints
	Context                   // background and framing information
	Completeness              // coverage of all relevant aspects and mechanisms
	Accuracy                  // factual care and verification
	Conciseness               // brevity, staying within bounds
	Examples                  // illustrative examples
	Safety                    // caveats, disclaimers, professional-help pointers
	Planning                  // devising a plan before solving
	numFacets
)

// Count is the number of facets in the taxonomy.
const Count = int(numFacets)

var facetNames = [...]string{
	Reasoning:    "reasoning",
	TrapAware:    "trap-aware",
	Specificity:  "specificity",
	Structure:    "structure",
	Style:        "style",
	Context:      "context",
	Completeness: "completeness",
	Accuracy:     "accuracy",
	Conciseness:  "conciseness",
	Examples:     "examples",
	Safety:       "safety",
	Planning:     "planning",
}

func (f Facet) String() string {
	if f < 0 || int(f) >= Count {
		return fmt.Sprintf("Facet(%d)", int(f))
	}
	return facetNames[f]
}

// Valid reports whether f is a member of the taxonomy.
func (f Facet) Valid() bool { return f >= 0 && int(f) < Count }

// All returns every facet in taxonomy order.
func All() []Facet {
	out := make([]Facet, Count)
	for i := range out {
		out[i] = Facet(i)
	}
	return out
}

// conflicts lists facet pairs that pull a response in opposite directions.
// A complementary prompt that demands a facet conflicting with one of the
// user's stated constraints is a defective augmentation — the critic in
// §3.2 exists to filter exactly these.
var conflicts = map[Facet]Facet{
	Completeness: Conciseness,
	Conciseness:  Completeness,
	Examples:     Conciseness,
}

// ConflictsWith reports whether demanding facet f conflicts with a
// constraint on facet g.
func ConflictsWith(f, g Facet) bool {
	if c, ok := conflicts[f]; ok && c == g {
		return true
	}
	return false
}

// Set is a bitset of facets.
type Set uint32

// NewSet builds a Set from the given facets.
func NewSet(fs ...Facet) Set {
	var s Set
	for _, f := range fs {
		s = s.With(f)
	}
	return s
}

// With returns s with f added.
func (s Set) With(f Facet) Set { return s | 1<<uint(f) }

// Without returns s with f removed.
func (s Set) Without(f Facet) Set { return s &^ (1 << uint(f)) }

// Has reports whether f is in s.
func (s Set) Has(f Facet) bool { return s&(1<<uint(f)) != 0 }

// Len returns the number of facets in s.
func (s Set) Len() int {
	n := 0
	for f := 0; f < Count; f++ {
		if s.Has(Facet(f)) {
			n++
		}
	}
	return n
}

// Facets returns the members of s in taxonomy order.
func (s Set) Facets() []Facet {
	out := make([]Facet, 0, s.Len())
	for f := 0; f < Count; f++ {
		if s.Has(Facet(f)) {
			out = append(out, Facet(f))
		}
	}
	return out
}

func (s Set) String() string {
	out := ""
	for _, f := range s.Facets() {
		if out != "" {
			out += "+"
		}
		out += f.String()
	}
	if out == "" {
		return "none"
	}
	return out
}

// Weights is a dense facet→weight map used for need profiles.
type Weights [Count]float64

// Top returns the k facets with the highest weights, ties broken by
// taxonomy order, excluding zero-weight facets.
func (w Weights) Top(k int) []Facet {
	type fw struct {
		f Facet
		w float64
	}
	all := make([]fw, 0, Count)
	for i, x := range w {
		if x > 0 {
			all = append(all, fw{Facet(i), x})
		}
	}
	// insertion sort: Count is tiny.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].w > all[j-1].w || (all[j].w == all[j-1].w && all[j].f < all[j-1].f)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]Facet, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].f
	}
	return out
}

// Sum returns the total weight.
func (w Weights) Sum() float64 {
	var s float64
	for _, x := range w {
		s += x
	}
	return s
}
