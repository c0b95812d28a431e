package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chatapi"
	"repro/internal/httpmw"
	"repro/internal/loadgen"
	"repro/internal/ring"
	"repro/internal/serving"
	"repro/internal/simllm"
)

// clusterFixture stands up the full sharded serving tier in-process:
// three passerve-equivalent replicas (each its own System + serving
// core + cache), a simulated chat upstream, and a pasproxy-equivalent
// front (ring client + reverse proxy). It is the e2e shape of
// README's "Running a cluster" walkthrough.
type clusterFixture struct {
	systems  []*System
	replicas []*httptest.Server
	client   *ring.Client
	front    *httptest.Server
}

// clusterSetup is what a test may change about the fixture; the zero
// value is the healthy, idle fleet.
type clusterSetup struct {
	// ring edits the routing client's config after the fixture filled
	// in the replicas, fail-open and a 10 s request timeout.
	ring func(*ring.Config)
	// replica is replica i's serving config; nil gives each a 4096-entry
	// cache and defaults otherwise.
	replica func(i int) ServingConfig
	// upstream replaces the simulated chat API behind the proxy.
	upstream http.Handler
}

func newClusterFixture(t *testing.T, setup clusterSetup) *clusterFixture {
	t.Helper()
	model := testSystem(t).System.model

	f := &clusterFixture{}
	urls := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		sys := newSystem(model)
		serving := ServingConfig{CacheSize: 4096}
		if setup.replica != nil {
			serving = setup.replica(i)
		}
		if err := sys.EnableServing(serving); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(httpmw.Chain(sys.Handler(), httpmw.Tenant()))
		t.Cleanup(srv.Close)
		f.systems = append(f.systems, sys)
		f.replicas = append(f.replicas, srv)
		urls = append(urls, srv.URL)
	}

	if setup.upstream == nil {
		apiServer, err := chatapi.NewServer(chatapi.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		setup.upstream = apiServer.Handler()
	}
	upstream := httptest.NewServer(setup.upstream)
	t.Cleanup(upstream.Close)

	cfg := ring.Config{Replicas: urls, Degrade: true, RequestTimeout: 10 * time.Second}
	if setup.ring != nil {
		setup.ring(&cfg)
	}
	var err error
	f.client, err = ring.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxyWith(f.client, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	f.front = httptest.NewServer(proxy)
	t.Cleanup(f.front.Close)
	return f
}

// replicaURLs returns the fleet's base URLs in replica order.
func (f *clusterFixture) replicaURLs() []string {
	out := make([]string, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = r.URL
	}
	return out
}

// TestClusterE2ELocality replays a zipfian chat burst through the proxy
// and asserts consistent-hash cache locality from the outside: every
// distinct prompt is computed on exactly one replica (cluster misses ==
// distinct keys), so the cluster-wide hit ratio equals what a single
// replica would achieve on the same trace.
func TestClusterE2ELocality(t *testing.T) {
	f := newClusterFixture(t, clusterSetup{})

	const requests = 150
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:      f.front.URL,
		Mode:        loadgen.ModeChat,
		Model:       simllm.GPT40613,
		Prompts:     benchPrompts(40),
		Requests:    requests,
		Concurrency: 6,
		Seed:        11,
		Replicas:    f.replicaURLs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed (first: %s)", rep.Errors, rep.Requests, rep.FirstError)
	}
	if rep.Degraded != 0 {
		t.Fatalf("%d requests degraded with a healthy fleet", rep.Degraded)
	}
	for _, r := range rep.Replicas {
		if r.Error != "" {
			t.Fatalf("replica %s stats scrape failed: %s", r.URL, r.Error)
		}
	}
	if got := rep.ClusterHits + rep.ClusterMisses; got != requests {
		t.Fatalf("cluster lookups = %d, want %d (every request exactly one cache lookup)", got, requests)
	}
	// Locality: each distinct key is computed exactly once cluster-wide
	// — its owner computes it, every repeat hits that owner's cache. A
	// repeat that arrives while the first computation is still running
	// misses too, but attaches to it (a single-flight follower) instead
	// of computing; any other extra miss means a key was served by more
	// than one replica.
	var followers int64
	for _, sys := range f.systems {
		followers += sys.core.Stats().DedupHits
	}
	if computed := rep.ClusterMisses - followers; computed != int64(rep.DistinctKeys) {
		t.Fatalf("cluster misses = %d (%d single-flight followers), distinct keys = %d: some key was computed on more than one replica",
			rep.ClusterMisses, followers, rep.DistinctKeys)
	}
	// The cluster hit ratio therefore matches the single-replica ideal
	// on this trace; assert the ISSUE's 5% tolerance explicitly.
	ideal := float64(requests-rep.DistinctKeys) / float64(requests)
	if diff := rep.ClusterHitRatio - ideal; diff < -0.05 || diff > 0.05 {
		t.Fatalf("cluster hit ratio %.3f vs single-replica ideal %.3f (outside 5%%)", rep.ClusterHitRatio, ideal)
	}
	// And the work actually spread: at least two replicas saw traffic.
	busy := 0
	for _, r := range rep.Replicas {
		if r.Hits+r.Misses > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d replica(s) saw traffic; ring is not spreading", busy)
	}
}

// TestClusterE2EAllDownDegrades kills the whole fleet and asserts the
// plug-and-play guarantee end to end: the chat request still answers
// 200 — served by the upstream with the raw prompt — and the response
// carries X-PAS-Degraded so the fallback is never silent.
func TestClusterE2EAllDownDegrades(t *testing.T) {
	f := newClusterFixture(t, clusterSetup{ring: func(cfg *ring.Config) {
		cfg.RequestTimeout = 2 * time.Second
	}})
	for _, r := range f.replicas {
		r.Close()
	}

	body, err := json.Marshal(chatapi.ChatRequest{
		Model:    simllm.GPT40613,
		Messages: []chatapi.Message{{Role: "user", Content: "explain consistent hashing briefly"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.front.URL+"/v1/chat/completions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-replicas-down chat answered %d: %s", resp.StatusCode, payload)
	}
	if resp.Header.Get("X-PAS-Degraded") != "1" {
		t.Fatal("degraded fallback not flagged with X-PAS-Degraded")
	}
	if len(payload) == 0 {
		t.Fatal("empty completion body")
	}
	if s := f.client.Stats(); s.Degraded == 0 {
		t.Fatalf("ring client did not count the degraded request: %+v", s)
	}
}

// TestClusterE2EAllDownFailClosed is the same dead fleet behind a proxy
// run with -degrade=false: the failure is PAS's own, so the client is
// told to retry (503 + Retry-After) and not that its request was bad —
// the proxy answered 400 here, quoting "connection refused".
func TestClusterE2EAllDownFailClosed(t *testing.T) {
	f := newClusterFixture(t, clusterSetup{ring: func(cfg *ring.Config) {
		cfg.RequestTimeout = 2 * time.Second
		cfg.Degrade = false
	}})
	for _, r := range f.replicas {
		r.Close()
	}
	resp, err := http.Post(f.front.URL+"/v1/chat/completions", "application/json",
		strings.NewReader(`{"model":"`+simllm.GPT40613+`","messages":[{"role":"user","content":"explain consistent hashing briefly"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("fail-closed chat with the fleet down: status %d, Retry-After %q, want 503 and 1: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), payload)
	}
	if resp.Header.Get("X-PAS-Degraded") != "" {
		t.Fatal("a refusal is not a degraded answer")
	}
}

// floodReplica is the overload drill's core (overload_e2e_test.go) as
// the daemons run it: fail-open, everything else at its default.
func floodReplica(int) ServingConfig {
	return ServingConfig{
		CacheSize:    -1,
		ComputeDelay: 25 * time.Millisecond,
		MaxInFlight:  4,
		QueueDepth:   64,
		QueueWait:    250 * time.Millisecond,
		Degrade:      true,
	}
}

// clusterFlood is one run of the cluster flood drill: the fixture's
// fleet behind the ring client at pasproxy's defaults (per-replica
// breakers 8 / 2 s, probes every 1-2 s, no near cache) with the prober
// running, and a stub upstream that counts the chats reaching it
// un-augmented.
type clusterFlood struct {
	rep loadgen.Report
	// rawUpstream counts chats whose user turn reached the upstream
	// exactly as the client sent it.
	rawUpstream int64
	// perReplica is each replica's core after the run.
	perReplica []serving.Stats
}

// full is the number of answers built from cat(p, M_p(p)).
func (f clusterFlood) full() int { return f.rep.Requests - f.rep.Degraded - f.rep.Shed }

func runClusterFlood(t *testing.T, replica func(int) ServingConfig, qps float64, requests int) clusterFlood {
	t.Helper()
	corpus := benchPrompts(20000)
	raw := make(map[string]bool, len(corpus))
	for _, p := range corpus {
		raw[p] = true
	}
	var out clusterFlood
	upstream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var chat chatapi.ChatRequest
		if err := json.NewDecoder(r.Body).Decode(&chat); err == nil && len(chat.Messages) > 0 &&
			raw[chat.Messages[len(chat.Messages)-1].Content] {
			atomic.AddInt64(&out.rawUpstream, 1)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"choices":[]}`)
	})
	f := newClusterFixture(t, clusterSetup{
		replica:  replica,
		upstream: upstream,
		ring: func(cfg *ring.Config) {
			cfg.RequestTimeout = 5 * time.Second
			cfg.BreakerThreshold = 8
			cfg.BreakerCooldown = 2 * time.Second
		},
	})
	ctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	f.client.Start(ctx)

	rep, err := loadgen.Run(ctx, loadgen.Config{
		Target:      f.front.URL,
		Mode:        loadgen.ModeChat,
		Prompts:     corpus,
		Skew:        loadgen.SkewUniform,
		Requests:    requests,
		QPS:         qps,
		Concurrency: 192,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	out.rep = rep
	for _, sys := range f.systems {
		out.perReplica = append(out.perReplica, sys.core.Stats())
	}
	return out
}

// TestClusterE2EFloodKeepsFullQuality floods the fleet at nearly twice
// its computation capacity for eight seconds, so that every member is
// probed at least four times, and asserts what overload may not cost:
// the plug-and-play contract — no error, no 5xx, every answer below full
// quality flagged — and the fleet's work: at least 0.8 of what the
// replicas can compute over the run comes back at full quality. Each
// replica's fair queue keeps its own slots busy and the ring spreads the
// keys evenly, so it reads 0.97-0.98 (DESIGN section 12). It read
// 0.21-0.52 with a global breaker in each core and 0.44-0.69 with the
// brownout ladder, whose raw rung the ring's pressure reroute read from
// a probe snapshot and herded the fleet's traffic onto whichever member
// last read full.
func TestClusterE2EFloodKeepsFullQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster flood drill is seconds-scale")
	}
	const qps, seconds = 900, 8
	got := runClusterFlood(t, floodReplica, qps, qps*seconds+1)

	if got.rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed (first: %s)", got.rep.Errors, got.rep.Requests, got.rep.FirstError)
	}
	if got.rep.Shed != 0 {
		t.Fatalf("%d/%d requests answered 503 by a fail-open fleet", got.rep.Shed, got.rep.Requests)
	}
	if got.rawUpstream != int64(got.rep.Degraded) {
		t.Fatalf("%d chats reached the upstream un-augmented, %d replies were flagged X-PAS-Degraded",
			got.rawUpstream, got.rep.Degraded)
	}
	if got.rep.Degraded == 0 {
		t.Fatalf("the flood never saturated the fleet: %+v", got.rep)
	}
	// Three replicas, four slots each, 25 ms a computation.
	capacity := 3 * 4 * got.rep.DurationSeconds / 0.025
	shares := make([]int64, len(got.perReplica))
	for i, s := range got.perReplica {
		shares[i] = s.Requests
	}
	t.Logf("%d of %d answers at full quality, %.2f of the fleet's capacity of %.0f computations in %.1fs (requests per replica %v)",
		got.full(), got.rep.Requests, float64(got.full())/capacity, capacity, got.rep.DurationSeconds, shares)
	if float64(got.full()) < 0.8*capacity {
		t.Fatal("under 0.8 of the fleet's capacity came back at full quality")
	}
}

// TestClusterE2EBenchServing regenerates BENCH_serving.json: the same
// cluster shape as TestClusterE2ELocality driven at the committed
// baseline's parameters (chat mode, 2000 requests at 400 QPS, seed 42,
// concurrency 16). It only runs when PAS_BENCH_OUT names the output
// path — `PAS_BENCH_OUT=BENCH_serving.json go test -run
// '^TestClusterE2EBenchServing$' .` — so the regular suite stays fast.
func TestClusterE2EBenchServing(t *testing.T) {
	path := os.Getenv("PAS_BENCH_OUT")
	if path == "" {
		t.Skip("set PAS_BENCH_OUT=BENCH_serving.json to regenerate the serving benchmark report")
	}
	f := newClusterFixture(t, clusterSetup{})

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:      f.front.URL,
		Mode:        loadgen.ModeChat,
		Model:       simllm.GPT40613,
		Prompts:     benchPrompts(500),
		Requests:    2000,
		QPS:         400,
		Concurrency: 16,
		Seed:        42,
		Replicas:    f.replicaURLs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed (first: %s)", rep.Errors, rep.Requests, rep.FirstError)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchPrompts builds a small distinct-prompt corpus for the bursts.
func benchPrompts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cluster e2e prompt %d: explain consistent hashing", i)
	}
	return out
}
