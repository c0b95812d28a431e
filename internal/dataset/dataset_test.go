package dataset

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/facet"
)

func TestPairValidate(t *testing.T) {
	good := Pair{Prompt: "p", Complement: "c", Category: "coding"}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]Pair{
		"empty prompt":     {Complement: "c"},
		"empty complement": {Prompt: "p"},
		"bad category":     {Prompt: "p", Complement: "c", Category: "bogus"},
	} {
		if err := p.validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
	// Empty category is allowed (defaults to QA downstream).
	if err := (Pair{Prompt: "p", Complement: "c"}).validate(); err != nil {
		t.Errorf("empty category should be valid: %v", err)
	}
}

func TestCategoryOrDefault(t *testing.T) {
	if (Pair{Category: "math"}).CategoryOrDefault() != facet.Math {
		t.Error("math not parsed")
	}
	if (Pair{Category: ""}).CategoryOrDefault() != facet.QA {
		t.Error("empty should default to QA")
	}
}

func TestDatasetAddRejectsInvalid(t *testing.T) {
	var d Dataset
	if err := d.Add(Pair{}); err == nil {
		t.Fatal("invalid pair accepted")
	}
	if err := d.Add(Pair{Prompt: "p", Complement: "c", Category: "qa"}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var d Dataset
	pairs := []Pair{
		{Prompt: "write code", Complement: "be specific", Category: "coding", Source: "generated"},
		{Prompt: "explain tides", Complement: "give context", Category: "knowledge"},
		{Prompt: "unicode ✓ prompt", Complement: "with \"quotes\" and\nnewline", Category: "qa"},
	}
	for _, p := range pairs {
		if err := d.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(pairs) {
		t.Fatalf("round trip lost pairs: %d", got.Len())
	}
	for i := range pairs {
		if got.Pairs[i] != pairs[i] {
			t.Errorf("pair %d = %+v, want %+v", i, got.Pairs[i], pairs[i])
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := readJSONL(strings.NewReader("{not json\n")); err == nil {
		t.Error("malformed json should fail")
	}
	if _, err := readJSONL(strings.NewReader(`{"prompt":"","complement":"c"}` + "\n")); err == nil {
		t.Error("invalid pair should fail")
	}
	d, err := readJSONL(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Error("blank lines should be skipped")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pairs.jsonl")
	var d Dataset
	if err := d.Add(Pair{Prompt: "p", Complement: "c", Category: "math"}); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Pairs[0].Category != "math" {
		t.Fatalf("loaded %+v", got.Pairs)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestByCategoryAndCounts(t *testing.T) {
	var d Dataset
	for i := 0; i < 3; i++ {
		if err := d.Add(Pair{Prompt: "p", Complement: "c", Category: "coding"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Add(Pair{Prompt: "p", Complement: "c", Category: "qa"}); err != nil {
		t.Fatal(err)
	}
	by := d.ByCategory()
	if len(by[facet.Coding]) != 3 || len(by[facet.QA]) != 1 {
		t.Fatalf("ByCategory = %v", by)
	}
	counts := d.CategoryCounts()
	if counts[facet.Coding] != 3 || counts[facet.QA] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestGoldenShape(t *testing.T) {
	g := Golden()
	if len(g) != facet.CategoryCount {
		t.Fatalf("golden covers %d categories, want %d", len(g), facet.CategoryCount)
	}
	for c, pairs := range g {
		if len(pairs) < 4 || len(pairs) > 5 {
			t.Errorf("category %v has %d golden pairs, paper uses 4-5", c, len(pairs))
		}
		for _, p := range pairs {
			if err := p.validate(); err != nil {
				t.Errorf("golden pair invalid: %v", err)
			}
			if p.Category != c.String() {
				t.Errorf("golden pair category %q under bucket %v", p.Category, c)
			}
			// Golden complements must demand at least one of the
			// category's top needs and carry no defects.
			dirs := facet.DetectDirectives(p.Complement)
			if dirs.Len() == 0 {
				t.Errorf("golden complement carries no directives: %q", p.Complement)
			}
			if facet.DetectAnswerLeak(p.Complement) {
				t.Errorf("golden complement leaks an answer: %q", p.Complement)
			}
		}
	}
}

func TestGoldenExamplesFor(t *testing.T) {
	pairs := Golden()[facet.Coding]
	if len(pairs) == 0 {
		t.Fatal("no golden coding pairs")
	}
	for _, p := range pairs {
		if p.Category != "coding" {
			t.Fatalf("wrong category %q", p.Category)
		}
	}
}

// ByCategory buckets the pairs by their category label.
func (d *Dataset) ByCategory() map[facet.Category][]Pair {
	out := make(map[facet.Category][]Pair)
	for _, p := range d.Pairs {
		c := p.CategoryOrDefault()
		out[c] = append(out[c], p)
	}
	return out
}
