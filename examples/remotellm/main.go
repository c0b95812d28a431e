// Remotellm demonstrates the production topology of §3.4: PAS runs
// locally while the downstream LLM lives behind a public chat-completions
// API (here, the simulated roster served in-process). The example meters
// the token overhead the complementary prompt adds to each request —
// "extremely low cost" is a measurable claim.
//
//	go run ./examples/remotellm
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	pas "repro"
	"repro/internal/chatapi"
	"repro/internal/corpus"
	"repro/internal/simllm"
	"repro/internal/tokenizer"
)

func main() {
	log.SetFlags(0)

	// --- the "public" LLM API -----------------------------------------
	poolCfg := corpus.DefaultConfig()
	poolCfg.Size = 1500
	pool, err := corpus.Generate(poolCfg)
	if err != nil {
		log.Fatal(err)
	}
	texts := make([]string, len(pool))
	for i, p := range pool {
		texts[i] = p.Text
	}
	tok, err := tokenizer.Train(texts, tokenizer.Config{VocabSize: 1024, MinPairFreq: 2})
	if err != nil {
		log.Fatal(err)
	}
	apiServer, err := chatapi.NewServer(chatapi.ServerConfig{Tokenizer: tok})
	if err != nil {
		log.Fatal(err)
	}
	api := httptest.NewServer(apiServer.Handler())
	defer api.Close()
	fmt.Printf("chat-completions API at %s\n", api.URL)

	// --- local PAS ------------------------------------------------------
	cfg := pas.DefaultConfig()
	cfg.CorpusSize = 3000
	cfg.ClassifierExamples = 2000
	cfg.Augment.PerCategoryCap = 60
	cfg.Augment.HeavyCategoryCap = 120
	built, err := pas.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	client, err := chatapi.NewClient(chatapi.ClientConfig{BaseURL: api.URL, APIKey: "demo-key", MaxRetries: 2})
	if err != nil {
		log.Fatal(err)
	}
	remote, err := chatapi.NewRemote(client, simllm.GPT4Turbo)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	prompt := "Analyze the trade offs of monolith versus microservices."

	// Bare request, for the cost comparison.
	bare, err := client.ChatCompletionContext(ctx, chatapi.ChatRequest{
		Model:    simllm.GPT4Turbo,
		Messages: []chatapi.Message{{Role: "user", Content: prompt}},
		Seed:     "remote-demo",
	})
	if err != nil {
		log.Fatal(err)
	}

	// PAS-enhanced request over the same API.
	enhanced, err := built.System.EnhanceContext(ctx, remote, prompt, "remote-demo")
	if err != nil {
		log.Fatal(err)
	}
	augmented, err := client.ChatCompletionContext(ctx, chatapi.ChatRequest{
		Model:    simllm.GPT4Turbo,
		Messages: []chatapi.Message{{Role: "user", Content: prompt + "\n" + enhanced.Complement}},
		Seed:     "remote-demo",
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nprompt: %s\n", prompt)
	fmt.Printf("PAS complement: %s\n\n", enhanced.Complement)
	fmt.Printf("bare request:      %3d prompt tokens, %3d completion tokens\n",
		bare.Usage.PromptTokens, bare.Usage.CompletionTokens)
	fmt.Printf("augmented request: %3d prompt tokens (+%d overhead), %3d completion tokens\n",
		augmented.Usage.PromptTokens, augmented.Usage.PromptTokens-bare.Usage.PromptTokens,
		augmented.Usage.CompletionTokens)
	fmt.Printf("\nresponse with PAS (first 200 chars):\n  %.200s\n", enhanced.Response)
}
