package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/chatapi"
	"repro/internal/loadgen"
	"repro/internal/ring"
	"repro/internal/sft"
	"repro/internal/simllm"
)

// rollingReplica is a passerve-equivalent replica that can be killed
// and restarted on the SAME address — httptest.Server can't do that,
// and a rolling restart is only real if the replica comes back where
// the ring expects it.
type rollingReplica struct {
	model *sft.Model
	addr  string

	mu  sync.Mutex
	srv *http.Server
	sys *System
}

// start boots a fresh System (cold cache — a real restart forgets) on
// the replica's address, retrying the bind briefly in case the old
// listener's close is still settling.
func (r *rollingReplica) start() error {
	sys := newSystem(r.model)
	if err := sys.EnableServing(ServingConfig{CacheSize: 4096}); err != nil {
		return err
	}
	network := r.addr
	if network == "" {
		network = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", network)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", network, err)
	}
	r.addr = ln.Addr().String()
	srv := &http.Server{Handler: sys.Handler()}
	r.mu.Lock()
	r.srv = srv
	r.sys = sys
	r.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

func (r *rollingReplica) url() string { return "http://" + r.addr }

// kill closes the listener and every connection — the abrupt death
// that follows a drain in a rolling restart.
func (r *rollingReplica) kill() error {
	r.mu.Lock()
	srv := r.srv
	r.srv = nil
	r.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// drain asks the replica to stop taking new work, without exiting —
// the test owns the kill timing.
func (r *rollingReplica) drain(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url()+"/v1/drain",
		bytes.NewReader([]byte(`{"exit": false}`)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("drain %s: status %d", r.url(), resp.StatusCode)
	}
	return nil
}

// TestClusterRolling is the zero-downtime proof: three replicas under
// sustained chat load are each drained, killed, restarted, and
// re-awaited in sequence, and the client-visible record must show zero
// PAS-side failures — only bounded degraded 200s — with the cluster
// cache-hit ratio recovering to within 5 points of its pre-churn
// level. Set PAS_BENCH_OUT to write the report (BENCH_rolling.json).
func TestClusterRolling(t *testing.T) {
	model := testSystem(t).System.model

	fleet := make([]*rollingReplica, 3)
	urls := make([]string, 3)
	for i := range fleet {
		fleet[i] = &rollingReplica{model: model}
		if err := fleet[i].start(); err != nil {
			t.Fatal(err)
		}
		urls[i] = fleet[i].url()
		rep := fleet[i]
		t.Cleanup(func() { _ = rep.kill() })
	}

	apiServer, err := chatapi.NewServer(chatapi.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(apiServer.Handler())
	t.Cleanup(upstream.Close)

	client, err := ring.NewClient(ring.Config{
		Replicas:       urls,
		Degrade:        true,
		RequestTimeout: 10 * time.Second,
		Health: ring.HealthConfig{
			ProbeInterval: 40 * time.Millisecond,
			ProbeTimeout:  300 * time.Millisecond,
			DownAfter:     2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client.Start(ctx)

	proxy, err := NewProxyWith(client, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	t.Cleanup(front.Close)

	targets := make([]loadgen.ChurnTarget, len(fleet))
	for i, rep := range fleet {
		rep := rep
		targets[i] = loadgen.ChurnTarget{
			URL:     rep.url(),
			Drain:   rep.drain,
			Kill:    func(context.Context) error { return rep.kill() },
			Restart: func(context.Context) error { return rep.start() },
		}
	}
	rep, err := loadgen.RunWithChurn(ctx, loadgen.Config{
		Target:      front.URL,
		Mode:        loadgen.ModeChat,
		Model:       simllm.GPT40613,
		Prompts:     benchPrompts(40),
		QPS:         150,
		Concurrency: 6,
		Seed:        23,
		Replicas:    urls,
	}, loadgen.ChurnPlan{
		Targets: targets,
		Warmup:  800 * time.Millisecond,
		Measure: 600 * time.Millisecond,
		// Several 40ms probe intervals fit in the linger, so the router
		// must observe "draining" before the kill.
		DrainLinger:   400 * time.Millisecond,
		DownTime:      150 * time.Millisecond,
		RejoinTimeout: 10 * time.Second,
		Settle:        500 * time.Millisecond,
		Cooldown:      600 * time.Millisecond,
		// Rejoined means the ROUTER took it back, not just that the
		// replica answers: the membership table must say up.
		Ready: func(ctx context.Context, url string) error {
			for _, m := range client.Membership().Snapshot() {
				if m.URL == url {
					if m.State == "up" {
						return nil
					}
					return fmt.Errorf("member %s is %s", url, m.State)
				}
			}
			return fmt.Errorf("member %s not in table", url)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if path := os.Getenv("PAS_BENCH_OUT"); path != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	churn := rep.Churn
	if churn == nil {
		t.Fatal("report carries no churn evidence")
	}
	for _, e := range churn.Events {
		if e.Error != "" {
			t.Fatalf("churn step %s/%s failed: %s", e.Replica, e.Phase, e.Error)
		}
	}
	if rep.Requests < 300 {
		t.Fatalf("only %d requests flowed; the roll outpaced the load", rep.Requests)
	}

	// Zero downtime, client-side: no failed requests, no 503 escaping
	// the proxy (drain sheds are failed over or degraded, never
	// surfaced), and the degraded fail-open slice stays a small
	// minority of the roll.
	if rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed during the roll (first: %s)", rep.Errors, rep.Requests, rep.FirstError)
	}
	if rep.Shed != 0 {
		t.Fatalf("%d shed 503s escaped the proxy during the roll", rep.Shed)
	}
	if max := rep.Requests / 10; rep.Degraded > max {
		t.Fatalf("%d/%d requests degraded (bound %d): the roll was not graceful", rep.Degraded, rep.Requests, max)
	}
	if rep.LatencyP99Ms >= 1500 {
		t.Fatalf("p99 %.1fms during the roll, want < 1500ms", rep.LatencyP99Ms)
	}

	// The routing tier must have seen each replica's graceful exit —
	// zero errors by lucky timing doesn't count.
	if _, _, drains := client.Membership().Churn(); drains != 3 {
		t.Fatalf("membership observed %d drains, want 3 (one per replica)", drains)
	}

	// Cache locality survived the roll: the post-churn window's hit
	// ratio is within 5 points of the pre-churn window (higher is fine
	// — the windows are the same length).
	if churn.PreChurnLookups == 0 || churn.RecoveryLookups == 0 {
		t.Fatalf("empty hit-ratio window: pre %d recovery %d", churn.PreChurnLookups, churn.RecoveryLookups)
	}
	if churn.RecoveryHitRatio < churn.PreChurnHitRatio-0.05 {
		t.Fatalf("cluster hit ratio did not recover: pre-churn %.3f, recovery %.3f",
			churn.PreChurnHitRatio, churn.RecoveryHitRatio)
	}
}
