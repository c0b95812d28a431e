// Logictrap reproduces the paper's case study 1 (Figures 1 and 2): the
// "10 birds on a tree" trick question. Without PAS a weak model usually
// falls into the trap; PAS's complementary prompt warns it and the answer
// comes out right.
//
//	go run ./examples/logictrap
package main

import (
	"context"
	"fmt"
	"log"

	pas "repro"
	"repro/internal/facet"
	"repro/internal/simllm"
)

const question = "If there are 10 birds on a tree and one is shot dead, how many birds are on the ground?"

func main() {
	log.SetFlags(0)

	cfg := pas.DefaultConfig()
	cfg.CorpusSize = 3000
	cfg.ClassifierExamples = 2000
	cfg.Augment.PerCategoryCap = 60
	cfg.Augment.HeavyCategoryCap = 120
	res, err := pas.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	trap, ok := facet.FindTrap(question)
	if !ok {
		log.Fatal("trap not in the knowledge bank")
	}

	main := simllm.MustModel(simllm.GPT35Turbo) // low trap resistance
	ctx := context.Background()
	fmt.Printf("question: %s\n\n", question)

	// Sample the model repeatedly with and without PAS and count how often
	// each condition states the right answer.
	const trials = 30
	var bareRight, pasRight int
	var lastBare, lastPAS, lastComplement string
	for i := 0; i < trials; i++ {
		salt := fmt.Sprintf("trial/%d", i)
		bare := main.Respond(question, simllm.Options{Salt: salt})
		if trap.ClaimsRight(bare) {
			bareRight++
		}
		enhanced, err := res.System.EnhanceContext(ctx, main, question, salt)
		if err != nil {
			log.Fatal(err)
		}
		if trap.ClaimsRight(enhanced.Response) {
			pasRight++
		}
		lastBare, lastPAS, lastComplement = bare, enhanced.Response, enhanced.Complement
	}

	fmt.Printf("complementary prompt from PAS:\n  %s\n\n", lastComplement)
	fmt.Printf("sample response WITHOUT PAS:\n  %.200s\n\n", lastBare)
	fmt.Printf("sample response WITH PAS:\n  %.200s\n\n", lastPAS)
	fmt.Printf("correct answers over %d trials: without PAS %d/%d, with PAS %d/%d\n",
		trials, bareRight, trials, pasRight, trials)
	if pasRight <= bareRight {
		log.Fatal("unexpected: PAS did not improve trap handling")
	}
}
