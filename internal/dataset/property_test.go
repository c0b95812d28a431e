package dataset

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/facet"
)

// TestJSONLRoundTripProperty: any dataset of structurally valid pairs
// (arbitrary unicode prompt/complement text) survives the JSONL round
// trip exactly.
func TestJSONLRoundTripProperty(t *testing.T) {
	f := func(prompts, complements []string, catRaw uint8) bool {
		var d Dataset
		n := len(prompts)
		if len(complements) < n {
			n = len(complements)
		}
		for i := 0; i < n; i++ {
			p := Pair{
				Prompt:     "p" + prompts[i], // prefix guarantees non-empty
				Complement: "c" + complements[i],
				Category:   facet.Category(int(catRaw) % facet.CategoryCount).String(),
			}
			if err := d.Add(p); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := d.WriteJSONL(&buf); err != nil {
			return false
		}
		got, err := readJSONL(&buf)
		if err != nil {
			return false
		}
		if got.Len() != d.Len() {
			return false
		}
		for i := range d.Pairs {
			if got.Pairs[i] != d.Pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCategoryCountsConsistentProperty: counts always sum to Len and
// agree with ByCategory bucket sizes.
func TestCategoryCountsConsistentProperty(t *testing.T) {
	f := func(cats []uint8) bool {
		var d Dataset
		for i, c := range cats {
			p := Pair{
				Prompt:     "p",
				Complement: "c",
				Category:   facet.Category(int(c) % facet.CategoryCount).String(),
			}
			if err := d.Add(p); err != nil {
				return false
			}
			_ = i
		}
		counts := d.CategoryCounts()
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != d.Len() {
			return false
		}
		for c, pairs := range d.ByCategory() {
			if counts[c] != len(pairs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
