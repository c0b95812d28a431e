// Quickstart: build a small PAS system from scratch, augment a prompt,
// and run it through a downstream model — the whole plug-and-play loop of
// §3.4 in one file.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	pas "repro"
	"repro/internal/simllm"
)

func main() {
	log.SetFlags(0)

	// 1. Build PAS: synthetic corpus -> curation -> pair generation with
	//    selection/regeneration -> fine-tune Qwen2-7B. A small build takes
	//    a few seconds; paper scale uses pas.DefaultConfig() unchanged.
	cfg := pas.DefaultConfig()
	cfg.CorpusSize = 3000
	cfg.ClassifierExamples = 2000
	cfg.Augment.PerCategoryCap = 60
	cfg.Augment.HeavyCategoryCap = 120
	fmt.Println("building PAS (corpus -> curation -> pairs -> SFT)...")
	res, err := pas.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d generated pairs (curation kept %d of %d raw prompts)\n\n",
		res.Dataset.Len(), res.CurationStats.AfterFilter, res.CurationStats.Input)

	// 2. Augment a user prompt: PAS appends a complementary prompt, it
	//    never rewrites the user's words.
	prompt := "Does blood pressure increase or decrease when the body loses blood?"
	fmt.Printf("user prompt:\n  %s\n", prompt)
	fmt.Printf("complementary prompt:\n  %s\n\n", res.System.Complement(prompt, "demo"))

	// 3. Plug into any downstream LLM: r_e = LLM(cat(p, p_c)).
	for _, name := range []string{simllm.GPT4Turbo, simllm.GPT35Turbo} {
		main := simllm.MustModel(name)

		bare := main.Respond(prompt, simllm.Options{Salt: "demo"})
		enhanced, err := res.System.EnhanceContext(context.Background(), main, prompt, "demo")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", name)
		fmt.Printf("without PAS (%d chars):\n  %.160s...\n", len(bare), bare)
		fmt.Printf("with PAS    (%d chars):\n  %.160s...\n\n", len(enhanced.Response), enhanced.Response)
	}
}
