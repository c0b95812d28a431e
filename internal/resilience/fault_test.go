package resilience

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simllm"
)

func TestFaultyChatterScript(t *testing.T) {
	inner := simllm.MustModel(simllm.GPT40613)
	boom := errors.New("backend exploded")
	f := NewFaultyChatter(inner,
		Fault{Err: boom},
		Fault{}, // clean passthrough
	)
	msgs := []simllm.Message{{Role: "user", Content: "Explain how tides form."}}
	ctx := context.Background()
	if _, err := f.ChatContext(ctx, msgs, simllm.Options{}); !errors.Is(err, boom) {
		t.Fatalf("step 1: err = %v, want scripted %v", err, boom)
	}
	out, err := f.ChatContext(ctx, msgs, simllm.Options{})
	if err != nil || out == "" {
		t.Fatalf("step 2: got (%q, %v), want passthrough", out, err)
	}
	// Script exhausted: calls keep passing through.
	if _, err := f.ChatContext(ctx, msgs, simllm.Options{}); err != nil {
		t.Fatalf("post-script call failed: %v", err)
	}
	if f.Calls() != 3 {
		t.Fatalf("calls = %d, want 3", f.Calls())
	}
}

func TestFaultyChatterLoopNeverRecovers(t *testing.T) {
	inner := simllm.MustModel(simllm.GPT40613)
	f := NewFaultyChatter(inner, Fault{Err: errors.New("dead")})
	f.Loop = true
	for i := 0; i < 5; i++ {
		if _, err := f.ChatContext(context.Background(), []simllm.Message{{Role: "user", Content: "x"}}, simllm.Options{}); err == nil {
			t.Fatalf("call %d succeeded through a looped dead backend", i)
		}
	}
}

func TestFaultyChatterDelayHonorsContext(t *testing.T) {
	inner := simllm.MustModel(simllm.GPT40613)
	f := NewFaultyChatter(inner, Fault{Delay: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.ChatContext(ctx, []simllm.Message{{Role: "user", Content: "x"}}, simllm.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("scripted delay ignored the context")
	}
}

func TestChaosTransportScript(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "real")
	}))
	defer upstream.Close()

	ct := &ChaosTransport{Script: []ChaosStep{
		{Drop: true},
		{Status: 429, RetryAfter: 2 * time.Second},
		{Status: 500},
	}}
	client := &http.Client{Transport: ct}

	if _, err := client.Get(upstream.URL); err == nil {
		t.Fatal("dropped connection should error")
	}
	resp, err := client.Get(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("step 2: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = client.Get(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("step 3: status %d, want 500", resp.StatusCode)
	}
	// Script exhausted: passthrough to the real server.
	resp, err = client.Get(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "real" {
		t.Fatalf("passthrough got (%d, %q)", resp.StatusCode, body)
	}
	if ct.Calls() != 4 {
		t.Fatalf("calls = %d, want 4", ct.Calls())
	}
}

func TestChaosTransportSlowBody(t *testing.T) {
	ct := &ChaosTransport{Script: []ChaosStep{
		{Status: 200, Body: strings.Repeat("x", 64), BodyLatency: 5 * time.Millisecond},
	}}
	client := &http.Client{Transport: ct}
	resp, err := client.Get("http://chaos.invalid/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	start := time.Now()
	body, err := io.ReadAll(resp.Body)
	if err != nil || len(body) != 64 {
		t.Fatalf("read (%d bytes, %v)", len(body), err)
	}
	// At least one stalled read happened.
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("body was not slow")
	}
}

func TestChaosTransportDelayHonorsContext(t *testing.T) {
	ct := &ChaosTransport{Script: []ChaosStep{{Delay: 10 * time.Second, Status: 200}}}
	client := &http.Client{Transport: ct}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://chaos.invalid/", nil)
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("delayed chaos step should fail when the context ends")
	}
	if time.Since(start) > time.Second {
		t.Fatal("chaos delay ignored the context")
	}
}
