// Command passerve exposes a trained PAS model as the plug-and-play HTTP
// service:
//
//	POST /v1/augment {"prompt": "..."}  ->  {"complement": ..., "augmented": ...}
//	GET  /v1/stats                      ->  serving-core snapshot
//	GET  /healthz
//
// Usage:
//
//	passerve -model pas-model.json [-addr :8422]
//
// With -model "" (or a missing file and -build), the command builds a
// fresh small PAS in-process, which is convenient for demos.
//
// The augment hot path runs through the serving core: a sharded TTL-LRU
// result cache (-cache-size, -cache-ttl), single-flight deduplication of
// concurrent identical prompts, and a bounded admission queue
// (-max-inflight, -queue-depth, -queue-wait) — the only admission there
// is — that sheds overload with 503 + Retry-After. With -degrade (default
// on) a request the augmentation path cannot serve is answered 200 with
// the raw prompt, flagged X-PAS-Degraded and counted in /v1/stats.
//
// The in-flight cap (-max-inflight) is fixed: M_p's service time does
// not rise with concurrency, so nothing adapts it and a shed request
// gets one attempt — answered raw (X-PAS-Degraded: 1, the only reduced
// answer) with -degrade, 503 + Retry-After without. Requests
// carrying an X-PAS-Tenant header (or an API key, fingerprinted) are
// admitted by a weighted fair-share queue (-tenant-weights,
// -tenant-quotas, -max-tenants), so one flooding tenant cannot starve
// the rest. The serving flags are cmd/internal/daemon's, shared with
// cmd/pasproxy.
//
// Shutdown is graceful and router-aware. POST /v1/drain (guarded by
// -admin-token when set) or SIGINT/SIGTERM first flips /v1/status to
// "draining" and sheds new complement computations with 503 +
// Retry-After while cache hits and in-flight work keep being served;
// after -drain-linger (time for routing tiers to observe the drain)
// the process quiesces the serving core and closes the listener,
// bounded by -drain-deadline.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	pas "repro"
	"repro/cmd/internal/daemon"
	"repro/internal/resilience"
)

// options is passerve's command line: the shared serving flags plus its
// own.
type options struct {
	*daemon.Flags
	model, addr, adminToken string
	build                   bool
	drainLinger, drainWait  time.Duration
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{Flags: daemon.Bind(fs)}
	fs.StringVar(&o.model, "model", "pas-model.json", "trained model path (from pastrain)")
	fs.StringVar(&o.addr, "addr", ":8422", "listen address")
	fs.BoolVar(&o.build, "build", false, "ignore -model and build a small PAS in-process")
	fs.StringVar(&o.adminToken, "admin-token", "", "token required by POST /v1/drain (empty = unauthenticated)")
	fs.DurationVar(&o.drainLinger, "drain-linger", time.Second, "time to advertise draining before closing the listener, so routers stop sending traffic")
	fs.DurationVar(&o.drainWait, "drain-deadline", 10*time.Second, "max total wait for in-flight and queued work to finish before exiting anyway")
	return o
}

// newHandler assembles passerve's HTTP surface: every route of the
// System behind the daemons' one middleware chain. What admits a
// POST /v1/augment is the serving core and nothing in front of it.
func newHandler(sys *pas.System, o *daemon.Obs, logger *log.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", o.Chain(sys.Handler(), "passerve", logger))
	mux.Handle("/metricsz", o.Reg.Handler())
	return mux
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("passerve: ")
	o := bindFlags(flag.CommandLine)
	flag.Parse()

	var sys *pas.System
	if o.build {
		log.Printf("building a fresh PAS (this takes a few seconds)...")
		cfg := pas.DefaultConfig()
		cfg.CorpusSize = 4000
		cfg.ClassifierExamples = 3000
		cfg.Augment.PerCategoryCap = 100
		cfg.Augment.HeavyCategoryCap = 200
		res, err := pas.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sys = res.System
	} else {
		var err error
		sys, err = pas.LoadSystem(o.model)
		if err != nil {
			log.Fatalf("%v (train one with pastrain, or pass -build)", err)
		}
	}

	if err := sys.EnableServing(o.Serving); err != nil {
		log.Fatal(err)
	}
	sys.SetAdminToken(o.adminToken)
	// An HTTP drain that asks for exit funnels into the same graceful
	// path as a signal.
	drainCh := make(chan struct{})
	sys.OnDrain(func() { close(drainCh) })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o.Start(ctx, "passerve")
	sys.RegisterMetrics(o.Reg)
	resilience.RegisterMetrics(o.Reg)

	log.Printf("serving PAS (base %s) on %s", sys.BaseModel(), o.addr)
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           newHandler(sys, o.Obs, log.New(os.Stderr, "passerve: ", 0)),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("signal received, draining...")
	case <-drainCh:
		log.Printf("drain requested over HTTP, draining...")
	}

	// Flip to draining BEFORE touching the listener: /v1/status must
	// announce the departure while the socket still answers, or routing
	// tiers only learn about it from connection errors.
	sys.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
	defer cancel()
	log.Printf("advertising draining for %s before closing the listener", o.drainLinger)
	_ = resilience.SleepContext(shutdownCtx, o.drainLinger)
	if err := sys.Quiesce(shutdownCtx); err != nil {
		log.Printf("drain deadline passed with work still in flight: %v", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("shut down cleanly")
}
