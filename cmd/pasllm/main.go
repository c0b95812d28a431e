// Command pasllm serves the simulated LLM roster behind an OpenAI-style
// chat-completions API with BPE usage metering and per-key rate limits —
// the "public LLM API" that the plug-and-play deployment of §3.4 plugs
// PAS in front of.
//
// Usage:
//
//	pasllm [-addr :8423] [-rate 600] [-vocab 2048] [-cache 0]
//
// Endpoints: POST /v1/chat/completions, GET /v1/models, GET /v1/status.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"repro/cmd/internal/daemon"
	"repro/internal/chatapi"
	"repro/internal/corpus"
	"repro/internal/httpmw"
	"repro/internal/tokenizer"
)

func bindFlags(fs *flag.FlagSet) (addr *string, rate, vocab, cache *int, o *daemon.Obs) {
	addr = fs.String("addr", ":8423", "listen address")
	rate = fs.Int("rate", 600, "requests per minute per API key (0 = unlimited)")
	vocab = fs.Int("vocab", 2048, "BPE vocabulary size for usage metering")
	cache = fs.Int("cache", 0, "LRU response-cache entries (0 = disabled)")
	return addr, rate, vocab, cache, daemon.BindObs(fs)
}

// newHandler registers server's metrics on o's registry and mounts the
// chat API behind pasllm's middlewares, beside /metricsz.
func newHandler(server *chatapi.Server, o *daemon.Obs, logger *log.Logger) http.Handler {
	server.RegisterMetrics(o.Reg)
	mux := http.NewServeMux()
	mux.Handle("/", httpmw.Chain(server.Handler(),
		httpmw.Recover(logger),
		httpmw.RequestID(),
		httpmw.Trace(o.Tracer, "pasllm"),
		httpmw.Logging(logger),
		httpmw.ConcurrencyLimit(128),
		o.Metrics.Middleware(),
	))
	mux.Handle("/metricsz", o.Reg.Handler())
	return mux
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pasllm: ")
	addr, rate, vocab, cache, o := bindFlags(flag.CommandLine)
	flag.Parse()

	log.Printf("training %d-token BPE vocabulary for usage metering...", *vocab)
	poolCfg := corpus.DefaultConfig()
	poolCfg.Size = 4000
	pool, err := corpus.Generate(poolCfg)
	if err != nil {
		log.Fatal(err)
	}
	texts := make([]string, len(pool))
	for i, p := range pool {
		texts[i] = p.Text
	}
	tok, err := tokenizer.Train(texts, tokenizer.Config{VocabSize: *vocab, MinPairFreq: 2})
	if err != nil {
		log.Fatal(err)
	}

	server, err := chatapi.NewServer(chatapi.ServerConfig{RatePerMinute: *rate, Tokenizer: tok, CacheSize: *cache})
	if err != nil {
		log.Fatal(err)
	}
	o.Start(context.Background(), "pasllm")

	log.Printf("serving the model roster on %s", *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(server, o, log.New(os.Stderr, "pasllm: ", 0)),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}
