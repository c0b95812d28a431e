package chatapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/simllm"
)

// Chaos-transport tests: the client's retry/breaker behaviour under a
// scripted misbehaving upstream, with no timing races — the chaos
// transport injects drops, 429 bursts, and 500 storms deterministically.

// chaosClient builds a client whose transport replays script in front
// of the real upstream, and whose retry sleeps are recorded instead of
// slept.
func chaosClient(t *testing.T, upstream string, cfg ClientConfig, script ...resilience.ChaosStep) (*Client, *resilience.ChaosTransport, *[]time.Duration) {
	t.Helper()
	ct := &resilience.ChaosTransport{Script: script}
	cfg.BaseURL = upstream
	cfg.HTTPClient = &http.Client{Transport: ct, Timeout: 5 * time.Second}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	return c, ct, &slept
}

func chatReq() ChatRequest {
	return ChatRequest{Model: simllm.GPT40613, Seed: "chaos",
		Messages: []Message{{Role: "user", Content: "Explain how tides form."}}}
}

func TestClientHonorsRetryAfterOn429(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c, ct, slept := chaosClient(t, srv.URL, ClientConfig{MaxRetries: 3, Backoff: time.Millisecond},
		resilience.ChaosStep{Status: 429, RetryAfter: 2 * time.Second},
	)
	resp, err := c.ChatCompletionContext(context.Background(), chatReq())
	if err != nil {
		t.Fatalf("want recovery after the 429, got %v", err)
	}
	if len(resp.Choices) == 0 {
		t.Fatal("empty response")
	}
	// The retry waited exactly what the server asked for — not the
	// 1ms-base jittered backoff.
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("sleeps = %v, want exactly the server's 2s Retry-After", *slept)
	}
	if ct.Calls() != 2 {
		t.Fatalf("transport calls = %d, want 2", ct.Calls())
	}
}

func TestClientHonorsRetryAfterOn503(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c, _, slept := chaosClient(t, srv.URL, ClientConfig{MaxRetries: 2, Backoff: time.Millisecond},
		resilience.ChaosStep{Status: 503, RetryAfter: time.Second},
	)
	if _, err := c.ChatCompletionContext(context.Background(), chatReq()); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != time.Second {
		t.Fatalf("sleeps = %v, want the 503's 1s Retry-After", *slept)
	}
}

func TestClientDeadlineCutsRetryLoopShort(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	// Ten 500s scripted, ten retries allowed, but only 50ms of deadline
	// against a 40ms base backoff: the loop must give up early rather
	// than sleep into a deadline it cannot make.
	script := make([]resilience.ChaosStep, 10)
	for i := range script {
		script[i] = resilience.ChaosStep{Status: 500}
	}
	ct := &resilience.ChaosTransport{Script: script}
	c, err := NewClient(ClientConfig{
		BaseURL:    srv.URL,
		MaxRetries: 10,
		Backoff:    40 * time.Millisecond,
		HTTPClient: &http.Client{Transport: ct, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.ChatCompletionContext(ctx, chatReq())
	if err == nil {
		t.Fatal("want failure under a persistent 500 storm")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Fatalf("err = %v, want the descriptive 500 error, not a bare deadline", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("retry loop ran %v past a 50ms deadline", elapsed)
	}
	if ct.Calls() >= 10 {
		t.Fatalf("transport calls = %d; the deadline should have cut the loop well short", ct.Calls())
	}
}

func TestClientRetryBudgetCutsLoopShort(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	// A 60ms budget against a 40ms base backoff: real sleeps, so the
	// first retry (≤40ms) may fit but the loop must stop well before
	// the ten allowed attempts.
	script := make([]resilience.ChaosStep, 10)
	for i := range script {
		script[i] = resilience.ChaosStep{Status: 500}
	}
	ct := &resilience.ChaosTransport{Script: script}
	c, err := NewClient(ClientConfig{
		BaseURL:     srv.URL,
		MaxRetries:  10,
		Backoff:     40 * time.Millisecond,
		RetryBudget: 60 * time.Millisecond,
		HTTPClient:  &http.Client{Transport: ct, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.ChatCompletionContext(context.Background(), chatReq()); err == nil {
		t.Fatal("want failure under a persistent 500 storm")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("budgeted loop ran %v", elapsed)
	}
	if ct.Calls() >= 10 {
		t.Fatalf("transport calls = %d; the budget should have cut the loop short", ct.Calls())
	}
}

func TestClientNeverRetriesTerminal400(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c, ct, slept := chaosClient(t, srv.URL, ClientConfig{MaxRetries: 5, Backoff: time.Millisecond},
		resilience.ChaosStep{Status: 400, Body: `{"error":{"message":"bad request","type":"invalid_request_error"}}`},
	)
	_, err := c.ChatCompletionContext(context.Background(), chatReq())
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want the 400 surfaced", err)
	}
	if ct.Calls() != 1 {
		t.Fatalf("transport calls = %d — a terminal 400 must never be retried", ct.Calls())
	}
	if len(*slept) != 0 {
		t.Fatalf("slept %v before giving up on a terminal error", *slept)
	}
}

func TestClientRecoversAfterDropAnd500Burst(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c, ct, _ := chaosClient(t, srv.URL, ClientConfig{MaxRetries: 4, Backoff: time.Millisecond},
		resilience.ChaosStep{Drop: true},
		resilience.ChaosStep{Status: 500},
		resilience.ChaosStep{Status: 502},
	)
	resp, err := c.ChatCompletionContext(context.Background(), chatReq())
	if err != nil {
		t.Fatalf("want recovery on attempt 4, got %v", err)
	}
	if len(resp.Choices) == 0 || resp.Choices[0].Message.Content == "" {
		t.Fatal("empty recovered response")
	}
	if ct.Calls() != 4 {
		t.Fatalf("transport calls = %d, want 4 (drop, 500, 502, success)", ct.Calls())
	}
}

func TestClientBreakerStopsHammeringDeadBackend(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	script := make([]resilience.ChaosStep, 20)
	for i := range script {
		script[i] = resilience.ChaosStep{Drop: true}
	}
	c, ct, _ := chaosClient(t, srv.URL,
		ClientConfig{MaxRetries: 0, Backoff: time.Millisecond, BreakerThreshold: 2, BreakerCooldown: time.Hour},
		script...)
	// Two real failures open the circuit.
	for i := 0; i < 2; i++ {
		if _, err := c.ChatCompletionContext(context.Background(), chatReq()); err == nil {
			t.Fatal("dead backend should fail")
		}
	}
	if got := c.breaker.State(); got != resilience.Open {
		t.Fatalf("breaker state = %v, want open", got)
	}
	// Subsequent calls fail fast without touching the transport.
	before := ct.Calls()
	for i := 0; i < 5; i++ {
		_, err := c.ChatCompletionContext(context.Background(), chatReq())
		if !errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("call %d: err = %v, want ErrOpen fast-fail", i, err)
		}
	}
	if ct.Calls() != before {
		t.Fatalf("open breaker still reached the transport: %d -> %d calls", before, ct.Calls())
	}
	if got := c.breaker.State(); got != resilience.Open {
		t.Fatalf("breaker state = %v after five refusals, want open", got)
	}
}

func TestClientBreakerHalfOpenProbeRecovers(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c, ct, _ := chaosClient(t, srv.URL,
		ClientConfig{MaxRetries: 0, Backoff: time.Millisecond, BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond},
		resilience.ChaosStep{Drop: true},
	)
	if _, err := c.ChatCompletionContext(context.Background(), chatReq()); err == nil {
		t.Fatal("scripted drop should fail")
	}
	if got := c.breaker.State(); got != resilience.Open {
		t.Fatalf("state = %v, want open", got)
	}
	time.Sleep(25 * time.Millisecond) // cooldown elapses
	// The script is exhausted, so the half-open probe passes through to
	// the healthy upstream and closes the circuit.
	if _, err := c.ChatCompletionContext(context.Background(), chatReq()); err != nil {
		t.Fatalf("probe should succeed against recovered upstream: %v", err)
	}
	if got := c.breaker.State(); got != resilience.Closed {
		t.Fatalf("state = %v, want closed after one successful probe", got)
	}
	if ct.Calls() != 2 {
		t.Fatalf("transport calls = %d, want 2", ct.Calls())
	}
}

func TestClientConfigurableTimeout(t *testing.T) {
	// The hard-coded 30s default is now ClientConfig.Timeout: a hanging
	// upstream must fail within the configured bound.
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.ChatCompletionContext(context.Background(), chatReq()); err == nil {
		t.Fatal("hanging upstream should time out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Timeout=50ms took %v", elapsed)
	}
}
