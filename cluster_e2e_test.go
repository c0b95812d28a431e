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
	"testing"
	"time"

	"repro/internal/chatapi"
	"repro/internal/loadgen"
	"repro/internal/ring"
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

func newClusterFixture(t *testing.T, mutate func(*ring.Config)) *clusterFixture {
	t.Helper()
	model := testSystem(t).System.model

	f := &clusterFixture{}
	urls := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		sys := NewSystem(model)
		if err := sys.EnableServing(ServingConfig{CacheSize: 4096}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(sys.Handler())
		t.Cleanup(srv.Close)
		f.systems = append(f.systems, sys)
		f.replicas = append(f.replicas, srv)
		urls = append(urls, srv.URL)
	}

	apiServer, err := chatapi.NewServer(chatapi.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(apiServer.Handler())
	t.Cleanup(upstream.Close)

	cfg := ring.Config{Replicas: urls, Degrade: true, RequestTimeout: 10 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
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
	f := newClusterFixture(t, nil)

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
	f := newClusterFixture(t, func(cfg *ring.Config) {
		cfg.RequestTimeout = 2 * time.Second
	})
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
	f := newClusterFixture(t, nil)

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
