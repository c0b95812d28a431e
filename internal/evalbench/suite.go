// Package evalbench implements the paper's evaluation harness: the
// Arena-Hard and AlpacaEval 2.0 benchmark suites with their LLM-as-judge
// scoring (including the length-controlled variant), the human-evaluation
// study, and the experiment drivers that regenerate every table and
// figure of §4. See DESIGN.md §4 for the experiment index.
package evalbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/baselines"
	"repro/internal/corpus"
	"repro/internal/facet"
	"repro/internal/judge"
	"repro/internal/metrics"
	"repro/internal/simllm"
)

// SuiteConfig sizes and seeds the benchmark suites.
type SuiteConfig struct {
	// ArenaSize is the number of Arena-Hard prompts (the real benchmark
	// has 500).
	ArenaSize int
	// AlpacaSize is the number of AlpacaEval prompts (the real benchmark
	// has 805).
	AlpacaSize int
	// Seed drives prompt sampling.
	Seed int64
	// Judge configures the LLM-as-judge.
	Judge judge.Config
	// ArenaReference is the reference model Arena-Hard win rates are
	// measured against (the real benchmark uses a GPT-4 snapshot).
	ArenaReference string
	// AlpacaReference is the AlpacaEval 2.0 reference model; the real
	// benchmark uses GPT-4-1106-preview, which therefore scores ~50
	// against itself — visible in the paper's Table 1.
	AlpacaReference string
}

// defaultSuiteConfig returns paper-scale suites.
func defaultSuiteConfig() SuiteConfig {
	return SuiteConfig{
		ArenaSize:       500,
		AlpacaSize:      805,
		Seed:            7,
		Judge:           judge.DefaultConfig(),
		ArenaReference:  simllm.GPT40613,
		AlpacaReference: simllm.GPT41106,
	}
}

// Suite holds the benchmark prompts and the precomputed reference
// responses they are judged against.
type Suite struct {
	arena      []string
	alpaca     []string
	alpacaCats []facet.Category
	judge      *judge.Judge
	arenaRefs  []string
	alpacaRefs []string
}

// newSuite samples the two benchmark prompt sets and precomputes the
// reference responses.
func newSuite(cfg SuiteConfig) (*Suite, error) {
	if cfg.ArenaSize < 1 || cfg.AlpacaSize < 1 {
		return nil, fmt.Errorf("evalbench: suite sizes must be >= 1 (arena %d, alpaca %d)",
			cfg.ArenaSize, cfg.AlpacaSize)
	}
	j, err := judge.New(cfg.Judge)
	if err != nil {
		return nil, err
	}
	arenaRef, err := model(cfg.ArenaReference)
	if err != nil {
		return nil, fmt.Errorf("evalbench: arena reference: %w", err)
	}
	alpacaRef, err := model(cfg.AlpacaReference)
	if err != nil {
		return nil, fmt.Errorf("evalbench: alpaca reference: %w", err)
	}

	arena, alpaca, alpacaCats, err := samplePrompts(cfg)
	if err != nil {
		return nil, err
	}
	s := &Suite{arena: arena, alpaca: alpaca, alpacaCats: alpacaCats, judge: j}
	s.arenaRefs = make([]string, len(arena))
	for i, p := range arena {
		s.arenaRefs[i] = arenaRef.Respond(p, simllm.Options{Salt: refSalt(i)})
	}
	s.alpacaRefs = make([]string, len(alpaca))
	for i, p := range alpaca {
		s.alpacaRefs[i] = alpacaRef.Respond(p, simllm.Options{Salt: refSalt(i)})
	}
	return s, nil
}

func refSalt(i int) string { return fmt.Sprintf("ref/%d", i) }

// samplePrompts draws the Arena-Hard set (reasoning-heavy, trap-laden,
// analytic prompts demanding multi-facet answers) and the AlpacaEval set
// (a general mix), both junk- and duplicate-free.
func samplePrompts(cfg SuiteConfig) (arena, alpaca []string, alpacaCats []facet.Category, err error) {
	gen := corpus.DefaultConfig()
	gen.Seed = cfg.Seed
	gen.Size = (cfg.ArenaSize + cfg.AlpacaSize) * 6
	gen.JunkRate = 0
	gen.DuplicateRate = 0
	gen.CategoryBias = 0
	pool, err := corpus.Generate(gen)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("evalbench: sampling prompts: %w", err)
	}
	hard := map[facet.Category]bool{
		facet.Reason: true, facet.Math: true, facet.Coding: true,
		facet.Analytical: true, facet.Knowledge: true,
	}
	for _, p := range pool {
		switch {
		case len(arena) < cfg.ArenaSize && hard[p.Truth.Category]:
			arena = append(arena, p.Text)
		case len(alpaca) < cfg.AlpacaSize:
			alpaca = append(alpaca, p.Text)
			alpacaCats = append(alpacaCats, p.Truth.Category)
		}
		if len(arena) == cfg.ArenaSize && len(alpaca) == cfg.AlpacaSize {
			break
		}
	}
	if len(arena) < cfg.ArenaSize || len(alpaca) < cfg.AlpacaSize {
		return nil, nil, nil, fmt.Errorf("evalbench: pool too small: got %d/%d arena, %d/%d alpaca",
			len(arena), cfg.ArenaSize, len(alpaca), cfg.AlpacaSize)
	}
	return arena, alpaca, alpacaCats, nil
}

// Row is one line of Tables 1, 2 or 5: a (main model, APE method) pair
// with its three benchmark scores.
type Row struct {
	MainModel string
	Method    string
	ArenaHard float64 // win rate % vs the arena reference
	Alpaca    float64 // AlpacaEval 2.0 weighted win rate %
	AlpacaLC  float64 // length-controlled win rate %
}

// average returns the row's mean score, the paper's "average" column.
func (r Row) average() float64 { return (r.ArenaHard + r.Alpaca + r.AlpacaLC) / 3 }

// evaluateRow benchmarks one (main model, APE) pair on both suites.
// Per-prompt work is independent, so it fans out across GOMAXPROCS
// workers; every per-prompt result is written to its own slot, keeping
// the aggregate byte-identical to a serial run.
func (s *Suite) evaluateRow(mainModel string, ape baselines.APE) (Row, error) {
	if ape == nil {
		return Row{}, fmt.Errorf("evalbench: nil APE")
	}
	main, err := model(mainModel)
	if err != nil {
		return Row{}, err
	}
	row := Row{MainModel: mainModel, Method: ape.Name()}

	// Arena-Hard: discrete pairwise wins against the reference, judged
	// in both positions to cancel position bias.
	arenaWins := make([]float64, len(s.arena))
	parallelFor(len(s.arena), func(i int) {
		p := s.arena[i]
		resp := main.Respond(ape.Transform(p, gameSalt(mainModel, i)), simllm.Options{Salt: gameSalt(mainModel, i)})
		v1 := s.judge.Compare(p, resp, s.arenaRefs[i], gameSalt(mainModel, i)+"/a")
		v2 := s.judge.Compare(p, s.arenaRefs[i], resp, gameSalt(mainModel, i)+"/b")
		if v1.AWins {
			arenaWins[i]++
		}
		if !v2.AWins {
			arenaWins[i]++
		}
	})
	var wins float64
	for _, w := range arenaWins {
		wins += w
	}
	row.ArenaHard = 100 * wins / float64(2*len(s.arena))

	// AlpacaEval 2.0: mean calibrated win probability against the
	// reference (the "weighted win rate"), plus the length-controlled
	// variant, which regresses the per-example win probability on the
	// log-length gap and reports the win rate at gap zero.
	probs := make([]float64, len(s.alpaca))
	gaps := make([]float64, len(s.alpaca))
	parallelFor(len(s.alpaca), func(i int) {
		p := s.alpaca[i]
		resp := main.Respond(ape.Transform(p, gameSalt(mainModel, i)), simllm.Options{Salt: gameSalt(mainModel, i)})
		v := s.judge.Compare(p, resp, s.alpacaRefs[i], gameSalt(mainModel, i)+"/c")
		probs[i] = v.ProbA
		gaps[i] = judge.LengthGap(resp, s.alpacaRefs[i])
	})
	row.Alpaca = 100 * metrics.Mean(probs)
	row.AlpacaLC = 100 * lengthControlled(probs, gaps)
	return row, nil
}

// parallelFor runs fn(0..n-1) across GOMAXPROCS workers. Callers must
// write only to their own index's slot.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The claim lives in the loop header so the bound is visible:
			// next only grows, so every worker exits once it passes n.
			for i := int(atomic.AddInt64(&next, 1)); i < n; i = int(atomic.AddInt64(&next, 1)) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// lengthControlled fits win ~ alpha + beta*gap and evaluates at gap = 0,
// clamped to [0,1]. When the gap is constant (degenerate), it falls back
// to the raw mean.
func lengthControlled(probs, gaps []float64) float64 {
	fit, err := metrics.LinearRegression(gaps, probs)
	if err != nil {
		return clamp01(metrics.Mean(probs))
	}
	return clamp01(fit.Predict(0))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func gameSalt(model string, i int) string { return fmt.Sprintf("%s/%d", model, i) }

func model(name string) (*simllm.Model, error) {
	p, err := simllm.LookupProfile(name)
	if err != nil {
		return nil, err
	}
	return simllm.New(p)
}
