// Package dataset defines the record types that flow through the PAS data
// pipeline — curated prompts, (prompt, complementary prompt) pairs, and
// golden few-shot examples — together with a JSONL store for persisting
// them, mirroring how instruction-tuning datasets are shipped in practice.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/facet"
)

// Pair is one training example for the PAS model: a user prompt and the
// complementary prompt that should be appended to it.
type Pair struct {
	// Prompt is the user's original prompt.
	Prompt string `json:"prompt"`
	// Complement is the complementary prompt (never a rewrite of Prompt).
	Complement string `json:"complement"`
	// Category is the curated category label.
	Category string `json:"category"`
	// Source records provenance ("generated", "golden", "regenerated:N").
	Source string `json:"source,omitempty"`
}

// validate checks structural invariants of a pair.
func (p Pair) validate() error {
	if p.Prompt == "" {
		return fmt.Errorf("dataset: pair has empty prompt")
	}
	if p.Complement == "" {
		return fmt.Errorf("dataset: pair for %q has empty complement", truncate(p.Prompt, 40))
	}
	if p.Category != "" {
		if _, err := facet.ParseCategory(p.Category); err != nil {
			return fmt.Errorf("dataset: pair for %q: %w", truncate(p.Prompt, 40), err)
		}
	}
	return nil
}

// CategoryOrDefault parses the pair's category, falling back to QA.
func (p Pair) CategoryOrDefault() facet.Category {
	c, err := facet.ParseCategory(p.Category)
	if err != nil {
		return facet.QA
	}
	return c
}

// Dataset is an ordered collection of pairs.
type Dataset struct {
	Pairs []Pair
}

// Add appends a pair after validating it.
func (d *Dataset) Add(p Pair) error {
	if err := p.validate(); err != nil {
		return err
	}
	d.Pairs = append(d.Pairs, p)
	return nil
}

// Len returns the number of pairs.
func (d *Dataset) Len() int { return len(d.Pairs) }

// CategoryCounts returns the per-category pair counts in taxonomy order —
// the data behind Figure 6.
func (d *Dataset) CategoryCounts() map[facet.Category]int {
	out := make(map[facet.Category]int)
	for _, p := range d.Pairs {
		out[p.CategoryOrDefault()]++
	}
	return out
}

// WriteJSONL streams the dataset to w as one JSON object per line.
func (d *Dataset) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, p := range d.Pairs {
		if err := enc.Encode(p); err != nil {
			return fmt.Errorf("dataset: encoding pair %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// readJSONL parses a JSONL stream into a Dataset, validating each pair.
func readJSONL(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	d := &Dataset{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var p Pair
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if err := d.Add(p); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading: %w", err)
	}
	return d, nil
}

// SaveFile writes the dataset to path as JSONL.
func (d *Dataset) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: closing %s: %w", path, cerr)
		}
	}()
	return d.WriteJSONL(f)
}

// LoadFile reads a JSONL dataset from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return readJSONL(f)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
