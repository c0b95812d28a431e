// Command pasproxy runs PAS as a transparent reverse proxy in front of
// any OpenAI-style chat-completions endpoint: clients keep their SDKs and
// simply point at the proxy, and every request's final user message gains
// a complementary prompt on the way through.
//
// Usage (single node — augmentation runs in-process):
//
//	pasproxy -model pas-model.json -upstream http://localhost:8423 [-addr :8424]
//
// Usage (cluster — augmentation routed across a passerve fleet):
//
//	pasproxy -upstream http://localhost:8423 \
//	         -replicas http://localhost:8431,http://localhost:8432,http://localhost:8433
//
// Pair it with cmd/pasllm as the upstream for a fully local demo.
//
// In single-node mode augmentation runs through the same serving core as
// cmd/passerve, configured by the same flags (cmd/internal/daemon) —
// result cache (-cache-size, -cache-ttl), single-flight dedup, bounded
// tenant-fair admission under a fixed cap (-max-inflight,
// -queue-depth, -queue-wait) and fail-open (-degrade).
//
// With -replicas the proxy instead routes each augmentation to the
// replica owning its cache key on a consistent-hash ring (-vnodes
// virtual nodes), so repeated prompts always warm the same replica's
// cache — after looking the key up in its own near cache (-cache-size,
// -cache-ttl) of full-quality answers, which a replica restart empties.
// The other serving flags size a core this mode does not run; setting
// one is logged at start-up. Replica health is probed at /v1/status (-probe-interval,
// -probe-timeout); a member failing -down-after consecutive checks is
// evicted from the ring — moving only its own keys — and rejoins on
// recovery. A replica announcing "draining" is routed around without
// any failure bookkeeping and rejoins when its status reads ok again.
// -hedge races slow owners against their ring successor, and each
// replica sits behind its own circuit breaker (-breaker-threshold,
// -breaker-cooldown): consecutive failed calls stop the proxy calling it
// for a while.
// GET /metricsz/cluster scrapes and merges every member's exposition.
// The fleet is reshaped at runtime through /v1/cluster/replicas
// (GET/POST/DELETE), enabled by -admin-token.
//
// With -degrade (default on) an augmentation the serving tier cannot
// deliver is forwarded un-augmented — flagged X-PAS-Degraded and counted
// in /v1/stats — so a PAS-side failure never turns into a user-visible
// 5xx; upstream errors, 4xx included, always pass through verbatim.
// SIGINT/SIGTERM drain in-flight requests.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	pas "repro"
	"repro/cmd/internal/daemon"
	"repro/internal/resilience"
	"repro/internal/ring"
)

// options is pasproxy's command line: the shared serving flags (which
// size the in-process core in single-node mode; -replicas uses the
// cache and -degrade settings and ignores clusterIgnored) plus its own.
type options struct {
	*daemon.Flags
	model, upstream, addr string

	// Cluster mode.
	replicas, adminToken        string
	vnodes, downAfter           int
	hedge                       bool
	hedgeMin, hedgeMax          time.Duration
	probeInterval, probeTimeout time.Duration
	ringTimeout                 time.Duration
	breakerThreshold            int
	breakerCooldown             time.Duration
}

// clusterIgnored are the serving flags that do nothing with -replicas:
// they size the in-process core's admission and tenancy, and the
// replicas run their own.
var clusterIgnored = []string{
	"max-inflight", "tenant-weights", "default-tenant-weight", "tenant-quotas",
	"tenant-queue-depth", "max-tenants", "compute-delay", "queue-depth", "queue-wait",
}

// setButIgnored names the flags of clusterIgnored that were set on fs.
func setButIgnored(fs *flag.FlagSet) (names []string) {
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(clusterIgnored, f.Name) {
			names = append(names, f.Name)
		}
	})
	return names
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{Flags: daemon.Bind(fs)}
	// The two cache flags mean something else in cluster mode; pasproxy
	// says so on top of the shared help text.
	fs.Lookup("cache-size").Usage += "; with -replicas: the proxy's near cache of full-quality replica answers (0 or negative disables)"
	fs.Lookup("cache-ttl").Usage += "; with -replicas: the proxy's near cache, which a replica restart also empties"
	fs.StringVar(&o.model, "model", "pas-model.json", "trained PAS model (from pastrain); unused with -replicas")
	fs.StringVar(&o.upstream, "upstream", "http://localhost:8423", "chat-completions endpoint to front (bare http(s)://host[:port])")
	fs.StringVar(&o.addr, "addr", ":8424", "listen address")

	fs.StringVar(&o.replicas, "replicas", "", "comma-separated passerve base URLs; set to route augmentations across a fleet by consistent hash")
	fs.IntVar(&o.vnodes, "vnodes", ring.DefaultVNodes, "virtual nodes per replica on the routing ring")
	fs.BoolVar(&o.hedge, "hedge", false, "hedge slow owner replicas against their ring successor")
	fs.DurationVar(&o.hedgeMin, "hedge-min", 20*time.Millisecond, "lower clamp on the adaptive hedge delay")
	fs.DurationVar(&o.hedgeMax, "hedge-max", 2*time.Second, "upper clamp on the adaptive hedge delay")
	fs.DurationVar(&o.probeInterval, "probe-interval", 2*time.Second, "target spacing between health probes of each replica")
	fs.DurationVar(&o.probeTimeout, "probe-timeout", time.Second, "timeout for one health probe")
	fs.IntVar(&o.downAfter, "down-after", 3, "consecutive failures that evict a replica from the ring")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 8, "consecutive failed calls to a replica before its breaker opens (per-replica breaker, with -replicas; 0 disables)")
	fs.DurationVar(&o.breakerCooldown, "breaker-cooldown", 2*time.Second, "breaker open->half-open window (per-replica breaker, with -replicas)")
	fs.DurationVar(&o.ringTimeout, "ring-timeout", 5*time.Second, "timeout for one augmentation attempt against one replica")
	fs.StringVar(&o.adminToken, "admin-token", "", "token for the /v1/cluster/replicas membership API (empty keeps it disabled)")
	return o
}

// keepUpstreamConnections lets http.DefaultTransport, which pas.Proxy
// forwards through, keep as many idle connections to the one upstream
// host as it may keep in all: the default of two per host re-dials on
// most requests once more than two clients are in flight.
func keepUpstreamConnections() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = t.MaxIdleConns
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pasproxy: ")
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	keepUpstreamConnections()

	// Fail configuration errors at startup with a clear message, not as
	// the first request's 502: the upstream must be a bare absolute
	// http(s) URL (the proxy only rewrites scheme/host, so a path here
	// would be silently dropped), and every replica likewise.
	if _, err := ring.NormalizeReplicas([]string{o.upstream}); err != nil {
		log.Fatalf("-upstream %q: must be a bare absolute http(s)://host[:port] URL", o.upstream)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o.Start(ctx, "pasproxy")
	resilience.RegisterMetrics(o.Reg)

	mux := http.NewServeMux()
	var proxy *pas.Proxy

	if o.replicas != "" {
		var urls []string
		for _, r := range strings.Split(o.replicas, ",") {
			if r = strings.TrimSpace(r); r != "" {
				urls = append(urls, r)
			}
		}
		client, err := ring.NewClient(ring.Config{
			Replicas:         urls,
			VNodes:           o.vnodes,
			RequestTimeout:   o.ringTimeout,
			BreakerThreshold: o.breakerThreshold,
			BreakerCooldown:  o.breakerCooldown,
			Hedge:            o.hedge,
			HedgeMin:         o.hedgeMin,
			HedgeMax:         o.hedgeMax,
			Degrade:          o.Serving.Degrade,
			CacheSize:        o.Serving.CacheSize,
			CacheTTL:         o.Serving.CacheTTL,
			Health: ring.HealthConfig{
				ProbeInterval: o.probeInterval,
				ProbeTimeout:  o.probeTimeout,
				DownAfter:     o.downAfter,
			},
		})
		if err != nil {
			log.Fatalf("-replicas: %v", err)
		}
		client.Start(ctx)
		client.RegisterMetrics(o.Reg)
		if proxy, err = pas.NewProxyWith(client, o.upstream); err != nil {
			log.Fatal(err)
		}
		mux.Handle("/v1/stats", client.StatsHandler())
		mux.Handle("/metricsz/cluster", client.MetricsRollup(o.Reg, 0))
		mux.Handle("/v1/cluster/replicas", client.AdminHandler(o.adminToken))
		if o.adminToken != "" {
			log.Printf("membership admin API enabled at /v1/cluster/replicas")
		}
		for _, name := range setButIgnored(flag.CommandLine) {
			log.Printf("-%s has no effect with -replicas: it sizes the in-process serving core, and the replicas run their own", name)
		}
		log.Printf("cluster mode: %d replicas, %d vnodes, hedging %v, near cache %d entries", len(urls), o.vnodes, o.hedge, max(o.Serving.CacheSize, 0))
	} else {
		sys, err := pas.LoadSystem(o.model)
		if err != nil {
			log.Fatalf("%v (train one with pastrain)", err)
		}
		if err := sys.EnableServing(o.Serving); err != nil {
			log.Fatal(err)
		}
		sys.RegisterMetrics(o.Reg)
		if proxy, err = pas.NewProxy(sys, o.upstream); err != nil {
			log.Fatal(err)
		}
		mux.Handle("/v1/stats", sys.StatsHandler())
		log.Printf("single-node mode (PAS base %s)", sys.BaseModel())
	}

	mux.Handle("/", o.Chain(proxy, "pasproxy", log.New(os.Stderr, "pasproxy: ", 0)))
	// Served locally, not proxied. /v1/stats is mounted per mode.
	mux.Handle("/metricsz", o.Reg.Handler())

	log.Printf("augmenting traffic to %s on %s", o.upstream, o.addr)
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		// No ReadTimeout or WriteTimeout: pas.Proxy bounds the one read it
		// holds in memory. Longer than an idle http.Transport keeps a connection.
		IdleTimeout: 2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("signal received, draining in-flight requests...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		log.Printf("shut down cleanly")
	}
}
