// Package classify implements the prompt-category classifier of §3.1. The
// paper fine-tunes a BaiChuan-13B on 60,000 internally labelled examples;
// here a multinomial naive-Bayes model over word and bigram features is
// trained on synthetic labelled prompts (see TrainingSet), which plays the
// same pipeline role: route each curated prompt to one of the 14
// categories so generation can pick category-matched golden examples.
package classify

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/corpus"
	"repro/internal/facet"
	"repro/internal/textkit"
)

// Example is one labelled training instance.
type Example struct {
	Text     string
	Category facet.Category
}

// Config controls training.
type Config struct {
	// Smoothing is the Laplace pseudo-count. Must be positive.
	Smoothing float64
}

// DefaultConfig returns standard settings.
func DefaultConfig() Config { return Config{Smoothing: 0.4} }

// Classifier is a trained multinomial naive-Bayes category model.
type Classifier struct {
	prior     [facet.CategoryCount]float64            // log prior
	condLog   [facet.CategoryCount]map[string]float64 // log P(feature|cat)
	unseenLog [facet.CategoryCount]float64            // log prob of unseen feature
}

// errNoData is returned when training with no examples.
var errNoData = errors.New("classify: no training examples")

// Train fits the classifier on labelled examples.
func Train(examples []Example, cfg Config) (*Classifier, error) {
	if len(examples) == 0 {
		return nil, errNoData
	}
	if cfg.Smoothing <= 0 {
		return nil, fmt.Errorf("classify: smoothing must be positive, got %v", cfg.Smoothing)
	}
	counts := [facet.CategoryCount]map[string]float64{}
	var catTotal [facet.CategoryCount]float64
	var catDocs [facet.CategoryCount]float64
	vocab := make(map[string]bool)
	for i := range counts {
		counts[i] = make(map[string]float64)
	}
	for _, ex := range examples {
		if !ex.Category.Valid() {
			return nil, fmt.Errorf("classify: invalid category %d", int(ex.Category))
		}
		catDocs[ex.Category]++
		for _, f := range features(ex.Text) {
			counts[ex.Category][f]++
			catTotal[ex.Category]++
			vocab[f] = true
		}
	}
	c := &Classifier{}
	v := float64(len(vocab)) + 1
	n := float64(len(examples))
	for cat := 0; cat < facet.CategoryCount; cat++ {
		c.prior[cat] = math.Log((catDocs[cat] + 1) / (n + float64(facet.CategoryCount)))
		denom := catTotal[cat] + cfg.Smoothing*v
		c.condLog[cat] = make(map[string]float64, len(counts[cat]))
		for f, cnt := range counts[cat] {
			c.condLog[cat][f] = math.Log((cnt + cfg.Smoothing) / denom)
		}
		c.unseenLog[cat] = math.Log(cfg.Smoothing / denom)
	}
	return c, nil
}

// Predict returns the most likely category for text together with the
// posterior probability of that category.
func (c *Classifier) Predict(text string) (facet.Category, float64) {
	feats := features(text)
	var logp [facet.CategoryCount]float64
	for cat := 0; cat < facet.CategoryCount; cat++ {
		lp := c.prior[cat]
		for _, f := range feats {
			if v, ok := c.condLog[cat][f]; ok {
				lp += v
			} else {
				lp += c.unseenLog[cat]
			}
		}
		logp[cat] = lp
	}
	best := 0
	for cat := 1; cat < facet.CategoryCount; cat++ {
		if logp[cat] > logp[best] {
			best = cat
		}
	}
	// Softmax for the posterior of the argmax.
	var z float64
	for cat := range logp {
		z += math.Exp(logp[cat] - logp[best])
	}
	return facet.Category(best), 1 / z
}

func features(text string) []string {
	words := textkit.Words(text)
	feats := make([]string, 0, len(words)*2)
	feats = append(feats, words...)
	for i := 0; i+1 < len(words); i++ {
		feats = append(feats, words[i]+"_"+words[i+1])
	}
	return feats
}

// TrainingSet synthesises n labelled examples by sampling clean prompts
// from the corpus generator — the stand-in for the paper's 60k internal
// labels. Junk and duplicates are excluded, as a labelling team would.
func TrainingSet(n int, seed int64) ([]Example, error) {
	if n <= 0 {
		return nil, fmt.Errorf("classify: n must be positive, got %d", n)
	}
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.Size = n * 2 // headroom for dropped junk/dups
	cfg.DuplicateRate = 0
	cfg.JunkRate = 0
	pool, err := corpus.Generate(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Example, 0, n)
	for _, p := range pool {
		if len(out) == n {
			break
		}
		out = append(out, Example{Text: p.Text, Category: p.Truth.Category})
	}
	return out, nil
}
