// Package embed implements the sentence-embedding substrate that stands in
// for the SimCSE/bge embedding model the paper uses in §3.1. Embeddings are
// produced by the hashing trick over word unigrams, word bigrams, and
// character trigrams, weighted by a corpus-fitted IDF table and L2
// normalised. The construction preserves the two properties the curation
// pipeline needs from a real sentence encoder:
//
//   - near-duplicate prompts (shared phrasing) map to high-cosine vectors, and
//   - prompts about different intents land far apart.
package embed

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/textkit"
)

// Vector is a dense embedding. All vectors from one Model share a dimension.
type Vector []float32

// Dot returns the inner product of v and w. Vectors must have equal length.
func (v Vector) Dot(w Vector) float64 {
	var s float64
	for i := range v {
		s += float64(v[i]) * float64(w[i])
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Cosine returns the cosine similarity of v and w, or 0 when either vector
// is zero.
func (v Vector) Cosine(w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// Config controls the feature space of a Model.
type Config struct {
	// Dim is the embedding dimension. Typical values are 128-1024.
	Dim int
	// Seed separates the hash space of independent models.
	Seed uint64
	// UseBigrams adds word-bigram features (on by default via DefaultConfig).
	UseBigrams bool
	// UseCharTrigrams adds character-trigram subword features.
	UseCharTrigrams bool
}

// DefaultConfig returns the configuration used across the PAS pipeline:
// 256 dimensions with all feature families enabled.
func DefaultConfig() Config {
	return Config{Dim: 256, Seed: 0x5ebe, UseBigrams: true, UseCharTrigrams: true}
}

// Model is a deterministic sentence encoder. It may be used zero-shot
// (uniform feature weights) or fitted on a corpus to learn IDF weights,
// mirroring how a pretrained encoder has corpus-level priors baked in.
//
// A Model is safe for concurrent use after Fit (or if never fitted).
type Model struct {
	cfg Config
	idf map[string]float64 // feature -> idf weight; nil means uniform
	n   int                // documents fitted
}

// New creates a Model with the given configuration.
// It returns an error if cfg.Dim is not positive.
func New(cfg Config) (*Model, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("embed: dimension must be positive, got %d", cfg.Dim)
	}
	return &Model{cfg: cfg}, nil
}

// MustNew is New for configurations known to be valid at compile time.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// errEmptyCorpus is returned by Fit when no documents are supplied.
var errEmptyCorpus = errors.New("embed: empty corpus")

// Fit learns IDF weights from a corpus. Calling Fit replaces any previous
// fit. Features absent from the corpus receive the maximum IDF when later
// encoded, matching standard smoothed-IDF behaviour.
func (m *Model) Fit(corpus []string) error {
	if len(corpus) == 0 {
		return errEmptyCorpus
	}
	df := make(map[string]int)
	for _, doc := range corpus {
		seen := make(map[string]bool)
		for _, f := range m.features(doc) {
			if !seen[f] {
				seen[f] = true
				df[f]++
			}
		}
	}
	m.n = len(corpus)
	m.idf = make(map[string]float64, len(df))
	for f, d := range df {
		m.idf[f] = math.Log(float64(1+m.n) / float64(1+d))
	}
	return nil
}

// encode embeds text. The zero text embeds to the zero vector.
func (m *Model) encode(text string) Vector {
	v := make(Vector, m.cfg.Dim)
	feats := m.features(text)
	if len(feats) == 0 {
		return v
	}
	// Term frequencies within the document, sub-linearly damped. Keys are
	// visited in sorted order: float accumulation is not associative, so
	// map-order iteration would make embeddings run-dependent.
	tf := make(map[string]int, len(feats))
	for _, f := range feats {
		tf[f]++
	}
	keys := make([]string, 0, len(tf))
	for f := range tf {
		keys = append(keys, f)
	}
	sort.Strings(keys)
	for _, f := range keys {
		c := tf[f]
		w := 1 + math.Log(float64(c))
		if m.idf != nil {
			if idf, ok := m.idf[f]; ok {
				w *= idf
			} else {
				w *= math.Log(float64(1 + m.n)) // unseen feature: max idf
			}
		}
		b := textkit.Bucket(f, m.cfg.Seed, m.cfg.Dim)
		v[b] += float32(w * textkit.Sign(f, m.cfg.Seed+1))
	}
	normalize(v)
	return v
}

// EncodeBatch embeds each text in order.
func (m *Model) EncodeBatch(texts []string) []Vector {
	out := make([]Vector, len(texts))
	for i, t := range texts {
		out[i] = m.encode(t)
	}
	return out
}

func (m *Model) features(text string) []string {
	words := textkit.Words(text)
	feats := make([]string, 0, len(words)*3)
	for _, w := range words {
		feats = append(feats, "w:"+w)
	}
	if m.cfg.UseBigrams {
		for i := 0; i+1 < len(words); i++ {
			feats = append(feats, "b:"+words[i]+" "+words[i+1])
		}
	}
	if m.cfg.UseCharTrigrams {
		for _, g := range textkit.CharNGrams(text, 3) {
			feats = append(feats, "c:"+g)
		}
	}
	return feats
}

func normalize(v Vector) {
	n := v.Norm()
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}
