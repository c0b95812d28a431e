// Package daemon is what the serving daemons share: cmd/passerve and
// cmd/pasproxy bind the serving flags here, once, straight onto the one
// pas.ServingConfig, serve behind the one middleware chain of
// Obs.Chain, and serve and shut down through Serve; all three servers
// (cmd/pasllm included) take their observability flags and registry /
// tracer / debug-listener wiring from Obs.
package daemon

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	pas "repro"
	"repro/internal/httpmw"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Flags is the parsed form of the flags both serving daemons accept.
type Flags struct {
	// Serving is handed to System.EnableServing as is; pasproxy
	// -replicas reads its cache and degrade settings for the ring.
	Serving pas.ServingConfig
	*Obs
}

// Bind declares the serving and observability flags on fs; the returned
// Flags is filled in by fs.Parse.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{Obs: BindObs(fs)}
	c := &f.Serving
	fs.IntVar(&c.CacheSize, "cache-size", 4096, "complement result cache entries (negative disables)")
	fs.DurationVar(&c.CacheTTL, "cache-ttl", 0, "result cache TTL (0 = no expiry; sound for a fixed model)")
	fs.IntVar(&c.MaxInFlight, "max-inflight", 64, "max concurrent complement computations (a fixed cap)")
	fs.IntVar(&c.MaxTenants, "max-tenants", 0, "bound on tracked tenants; ids beyond it pool into an overflow tenant (0 = 64)")
	fs.DurationVar(&c.ComputeDelay, "compute-delay", 0, "pad every complement computation (overload-drill knob; leave 0 in production)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 256, "max requests waiting for a computation slot (0 = shed instantly)")
	fs.DurationVar(&c.QueueWait, "queue-wait", 100*time.Millisecond, "max wait for a slot before shedding")
	fs.BoolVar(&c.Degrade, "degrade", true, "fail open: answer with the un-augmented prompt, flagged X-PAS-Degraded, instead of 503 when augmentation sheds")
	return f
}

// Obs is a server's observability: its two flags and, once Start has
// run, the metrics registry (served at /metricsz by Reg.Handler()), the
// tracer, and the HTTP metrics recorded into that registry.
type Obs struct {
	DebugAddr   string
	TraceSample int

	Reg     *obs.Registry
	Tracer  *obs.Tracer
	Metrics *httpmw.Metrics
}

// BindObs declares -debug-addr and -trace-sample on fs; a server
// without a serving core (cmd/pasllm) calls it instead of Bind.
func BindObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "separate listener for pprof, /debug/traces and /metricsz (empty disables)")
	fs.IntVar(&o.TraceSample, "trace-sample", 1, "head-sample 1 in N traces; errored and slow traces are always kept (negative keeps only those)")
	return o
}

// Start builds the registry, tracer, and HTTP metrics of the named
// service and, when -debug-addr is set, serves the debug endpoints
// there until ctx ends.
func (o *Obs) Start(ctx context.Context, service string) {
	o.Reg = obs.NewRegistry()
	o.Tracer = obs.NewTracer(obs.TraceConfig{SampleEvery: o.TraceSample})
	o.Metrics = httpmw.NewMetrics()
	o.Metrics.Register(o.Reg)
	obs.RegisterBuildInfo(o.Reg, service)
	obs.RegisterRuntimeMetrics(o.Reg)
	if o.DebugAddr == "" {
		return
	}
	log.Printf("debug endpoints (pprof, /debug/traces, /metricsz) on %s", o.DebugAddr)
	go func() {
		if err := obs.ServeDebug(ctx, o.DebugAddr, obs.DebugMux(o.Reg, o.Tracer)); err != nil {
			log.Printf("debug listener: %v", err)
		}
	}()
}

// Chain puts h behind the middlewares both serving daemons run, the
// first outermost. The order is load-bearing: Logging reads the tenant
// Tenant notes on the shared recorder, Metrics the span Trace starts.
// None of them refuses a request: admission is the serving core's alone.
func (o *Obs) Chain(h http.Handler, service string, logger *log.Logger) http.Handler {
	return httpmw.Chain(h,
		httpmw.Recover(logger),
		httpmw.RequestID(),
		httpmw.Trace(o.Tracer, service),
		httpmw.Logging(logger),
		httpmw.Tenant(),
		o.Metrics.Middleware(),
	)
}

// Serve serves srv on l in the background: each cleartext HTTP/1.1
// keep-alive exchange on its connection's goroutine, through a
// wire.Server, and every other connection through srv itself. Shutdown
// on the returned server stops both; the channel receives the error
// serving stopped on, http.ErrServerClosed after a Shutdown.
func Serve(srv *http.Server, l net.Listener) (*wire.Server, <-chan error) {
	ws := wire.NewServer(srv)
	errc := make(chan error, 1)
	go func() { errc <- ws.Serve(l) }()
	return ws, errc
}
