package pas_test

import (
	"context"
	"fmt"
	"log"

	pas "repro"
	"repro/internal/simllm"
)

// ExampleBuild shows the end-to-end construction: synthetic corpus,
// §3.1 curation, §3.2 pair generation with selection/regeneration, and
// fine-tuning. (Compile-checked; run examples/quickstart for live output.)
func ExampleBuild() {
	cfg := pas.DefaultConfig()
	cfg.CorpusSize = 3000 // small demo build

	res, err := pas.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairs generated:", res.Dataset.Len())
	fmt.Println("complement:", res.System.Complement("Explain how tides form.", ""))
}

// ExampleSystem_EnhanceContext runs the full plug-and-play path
// r_e = LLM(cat(p, M_p(p))) against a downstream model.
func ExampleSystem_EnhanceContext() {
	sys, err := pas.LoadSystem("pas-model.json")
	if err != nil {
		log.Fatal(err)
	}
	out, err := sys.EnhanceContext(context.Background(), simllm.MustModel(simllm.GPT4Turbo),
		"Does blood pressure increase or decrease when the body loses blood?", "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Complement)
	fmt.Println(out.Response)
}

// ExampleNewProxy fronts an existing OpenAI-style endpoint with the
// transparent augmenting reverse proxy.
func ExampleNewProxy() {
	sys, err := pas.LoadSystem("pas-model.json")
	if err != nil {
		log.Fatal(err)
	}
	proxy, err := pas.NewProxy(sys, "http://localhost:8423")
	if err != nil {
		log.Fatal(err)
	}
	_ = proxy // mount with http.ListenAndServe(":8424", proxy)
}

// ExampleSystem_AugmentMessages augments only the final user turn of a
// multi-turn conversation.
func ExampleSystem_AugmentMessages() {
	sys, err := pas.LoadSystem("pas-model.json")
	if err != nil {
		log.Fatal(err)
	}
	conv, err := sys.AugmentMessages([]simllm.Message{
		{Role: "user", Content: "Explain how tides form."},
		{Role: "assistant", Content: "Tides come from gravity."},
		{Role: "user", Content: "Now explain spring tides."},
	}, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(conv[2].Content)
}
