package facet

import "strings"

// Trap is one entry in the shared logic-trap knowledge bank. A strong
// model (or a judge, which in the paper is GPT-4) knows both the trap's
// giveaway phrasing and the right/wrong answers; a response that states
// the wrong claim is detectably incorrect to the judge.
//
// Case study 1 of the paper ("10 birds on a tree, one is shot — how many
// on the ground?") is the first entry.
type Trap struct {
	// Name identifies the trap family.
	Name string
	// Cue is the phrase in a prompt that marks this trap.
	Cue string
	// WrongClaim is the statement a model emits when it falls in.
	WrongClaim string
	// RightClaim is the statement a careful model emits instead.
	RightClaim string
}

var trapBank = []Trap{
	{
		Name:       "shot-birds",
		Cue:        "birds on a tree and one is shot",
		WrongClaim: "nine birds remain on the tree",
		RightClaim: "only the one shot bird is on the ground, since the rest fly away",
	},
	{
		Name:       "widow-sister",
		Cue:        "marry his widow's sister",
		WrongClaim: "yes, the man may marry his widow's sister",
		RightClaim: "a man with a widow is dead, so he cannot marry anyone",
	},
	{
		Name:       "surgeon-parent",
		Cue:        "the surgeon says i cannot operate",
		WrongClaim: "the surgeon must be lying about the relationship",
		RightClaim: "the surgeon is the boy's mother",
	},
	{
		Name:       "heavier-kilo",
		Cue:        "heavier a kilogram of steel or a kilogram of feathers",
		WrongClaim: "the steel is heavier than the feathers",
		RightClaim: "they weigh the same, one kilogram each",
	},
	{
		Name:       "months-28-days",
		Cue:        "months have 28 days",
		WrongClaim: "only february has 28 days",
		RightClaim: "all twelve months have at least 28 days",
	},
	{
		Name:       "race-overtake-second",
		Cue:        "overtake the runner in second place",
		WrongClaim: "you would be in first place",
		RightClaim: "you take their spot and are now in second place",
	},
	{
		Name:       "rooster-egg",
		Cue:        "a rooster lays an egg on the roof",
		WrongClaim: "the egg rolls down the side the wind blows",
		RightClaim: "roosters do not lay eggs, so there is no egg to roll",
	},
	{
		Name:       "hole-dirt",
		Cue:        "how much dirt is in a hole",
		WrongClaim: "the hole holds about a cubic meter of dirt",
		RightClaim: "a hole is empty, so it contains no dirt at all",
	},
	{
		Name:       "doctor-brother",
		Cue:        "the doctor has a brother but the brother has no brother",
		WrongClaim: "the situation is impossible as described",
		RightClaim: "the doctor is the brother's sister",
	},
	{
		Name:       "match-first",
		Cue:        "a lamp a stove and a candle and only one match",
		WrongClaim: "light the lamp first to see the room",
		RightClaim: "light the match first, or nothing else can be lit",
	},
}

// Traps returns the shared trap bank. Callers must not modify it.
func Traps() []Trap { return trapBank }

// FindTrap reports the trap whose cue appears in text, if any. Matching is
// case-insensitive on normalised text.
func FindTrap(text string) (Trap, bool) {
	folded := strings.ToLower(text)
	for _, tr := range trapBank {
		if strings.Contains(folded, tr.Cue) {
			return tr, true
		}
	}
	return Trap{}, false
}

// ClaimsWrong reports whether the response text states the trap's wrong
// claim.
func (t Trap) ClaimsWrong(response string) bool {
	return strings.Contains(strings.ToLower(response), t.WrongClaim)
}

// ClaimsRight reports whether the response text states the trap's right
// claim.
func (t Trap) ClaimsRight(response string) bool {
	return strings.Contains(strings.ToLower(response), t.RightClaim)
}
